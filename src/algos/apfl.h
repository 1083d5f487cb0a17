// APFL (Deng et al., 2020): adaptive personalized federated learning. Each
// client keeps a private model v alongside the shared global model w and is
// evaluated on the mixture alpha*v + (1-alpha)*w. During local updates w
// takes a standard SGD step while v descends the loss of the mixture.
#pragma once

#include "algos/client_store.h"
#include "flapi/algorithm.h"
#include "flapi/model.h"

namespace calibre::algos {

class Apfl : public fl::Algorithm {
 public:
  // `alpha`: the personal/global mixing weight (paper default 0.5 fixed; the
  // adaptive-alpha variant converges to similar mixes at this scale).
  Apfl(const fl::FlConfig& config, float alpha = 0.5f)
      : fl::Algorithm(config), alpha_(alpha) {}

  std::string name() const override { return "APFL"; }

  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

 private:
  // Runs the v-side updates for `epochs` over the client's data.
  void train_personal(std::vector<float>& v, const std::vector<float>& w,
                      const data::Dataset& dataset, int epochs,
                      rng::Generator& gen);

  float alpha_;
  ClientStore<std::vector<float>> personal_models_;
};

}  // namespace calibre::algos
