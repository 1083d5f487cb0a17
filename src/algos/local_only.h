// Purely local training ("Script-Convergent" / "Script-Fair" in the paper):
// every client trains its own model from scratch on its local dataset, with
// no federation at all. Script-Fair stops after 10 epochs; Script-Convergent
// trains to (approximate) convergence. Run with config.rounds == 0.
#pragma once

#include "flapi/algorithm.h"
#include "flapi/model.h"

namespace calibre::algos {

class LocalOnly : public fl::Algorithm {
 public:
  // `epochs`: local training budget (10 for Fair; large for Convergent).
  LocalOnly(const fl::FlConfig& config, int epochs, std::string label)
      : fl::Algorithm(config), epochs_(epochs), label_(std::move(label)) {}

  std::string name() const override { return label_; }

  nn::ModelState initialize() override { return nn::ModelState(); }

  fl::ClientUpdate local_update(const nn::ModelState&,
                                const fl::ClientContext&) override;

  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

 private:
  int epochs_;
  std::string label_;
};

}  // namespace calibre::algos
