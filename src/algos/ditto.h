// Ditto (Li et al., ICML 2021): fairness and robustness through
// personalization. The global model is trained with plain FedAvg; each
// client additionally maintains a personal model v trained on
//   f_c(v) + (lambda/2) ||v - w_global||^2,
// and is evaluated on v.
#pragma once

#include "algos/client_store.h"
#include "flapi/algorithm.h"
#include "flapi/model.h"

namespace calibre::algos {

class Ditto : public fl::Algorithm {
 public:
  Ditto(const fl::FlConfig& config, float lambda = 0.5f)
      : fl::Algorithm(config), lambda_(lambda) {}

  std::string name() const override { return "Ditto"; }

  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

 private:
  // Prox-regularised personal training of v toward `anchor`.
  void train_personal(std::vector<float>& v, const std::vector<float>& anchor,
                      const data::Dataset& dataset, int epochs,
                      rng::Generator& gen);

  float lambda_;
  ClientStore<std::vector<float>> personal_models_;
};

}  // namespace calibre::algos
