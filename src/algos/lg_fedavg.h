// LG-FedAvg (Liang et al., 2019 — "Think Locally, Act Globally"): clients
// keep *local* representation layers (the Encoder) and federate only the
// global layers (the Head). The mirror image of FedPer.
#pragma once

#include "algos/client_store.h"
#include "flapi/algorithm.h"
#include "flapi/model.h"

namespace calibre::algos {

class LgFedAvg : public fl::Algorithm {
 public:
  explicit LgFedAvg(const fl::FlConfig& config) : fl::Algorithm(config) {}

  std::string name() const override { return "LG-FedAvg"; }

  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

  // Encoder features of `x` under client `client_id`'s local representation
  // (the shared random init when the client never trained). Used by the
  // representation-quality benches: LG-FedAvg's encoders never leave the
  // client, so features must be extracted per client.
  tensor::Tensor client_features(int client_id, const tensor::Tensor& x);

 private:
  ClientStore<nn::ModelState> encoders_;
};

}  // namespace calibre::algos
