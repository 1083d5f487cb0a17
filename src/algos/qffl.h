// q-FedAvg / q-FFL (Li et al., ICLR 2020 — "Fair Resource Allocation in
// Federated Learning", the paper's reference [2] for model fairness).
//
// Clients with higher local loss receive more aggregation weight:
// w_c ∝ n_c * L_c^q. q = 0 reduces to FedAvg; larger q trades mean accuracy
// for a more uniform accuracy distribution. Included because it is *the*
// fairness-first baseline family the paper positions Calibre against.
#pragma once

#include "flapi/algorithm.h"
#include "flapi/model.h"

namespace calibre::algos {

class QFfl : public fl::Algorithm {
 public:
  QFfl(const fl::FlConfig& config, float q = 1.0f)
      : fl::Algorithm(config), q_(q) {}

  std::string name() const override { return "q-FedAvg"; }

  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  // Native O(model) fold: w_c ∝ n_c * (L_c + eps)^q is separable per update,
  // so the q-weighted mean streams.
  std::unique_ptr<fl::StreamingAggregator> make_aggregator(
      const nn::ModelState& global, int round) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

 private:
  float q_;
};

}  // namespace calibre::algos
