// FedProx (Li et al., MLSys 2020): FedAvg with a proximal term
// (mu/2)||w - w_global||^2 added to every local objective, limiting client
// drift under heterogeneity. Evaluated with head fine-tuning like FedAvg-FT
// so it slots into the same personalization protocol.
#pragma once

#include "flapi/algorithm.h"
#include "flapi/model.h"

namespace calibre::algos {

class FedProx : public fl::Algorithm {
 public:
  FedProx(const fl::FlConfig& config, float mu = 0.1f)
      : fl::Algorithm(config), mu_(mu) {}

  std::string name() const override { return "FedProx"; }

  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

 private:
  float mu_;
};

}  // namespace calibre::algos
