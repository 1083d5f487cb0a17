// FedBABU (Oh et al., ICLR 2022): the head is frozen at its (shared) random
// initialisation for the whole federated stage — only the body (Encoder) is
// trained and aggregated. Personalization then fine-tunes the head.
#pragma once

#include "flapi/algorithm.h"
#include "flapi/model.h"

namespace calibre::algos {

class FedBabu : public fl::Algorithm {
 public:
  explicit FedBabu(const fl::FlConfig& config);

  std::string name() const override { return "FedBABU"; }

  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

 private:
  // The shared, never-trained random head every client uses while training
  // the body.
  nn::ModelState fixed_head_;
};

}  // namespace calibre::algos
