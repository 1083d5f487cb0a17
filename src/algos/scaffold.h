// SCAFFOLD (Karimireddy et al., ICML 2020): stochastic controlled averaging.
// Server and clients maintain control variates; every local SGD step is
// corrected by (c - c_i), removing client drift under non-IID data. The
// server state broadcast to clients is the concatenation [model | c], so the
// control variate travels over the same wire as the model.
//
// SCAFFOLD-FT additionally fine-tunes the head during personalization.
#pragma once

#include "algos/client_store.h"
#include "flapi/algorithm.h"
#include "flapi/model.h"

namespace calibre::algos {

class Scaffold : public fl::Algorithm {
 public:
  Scaffold(const fl::FlConfig& config, bool finetune_head);

  std::string name() const override {
    return finetune_head_ ? "SCAFFOLD-FT" : "SCAFFOLD";
  }

  nn::ModelState initialize() override;
  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  // Native O(model) fold over [model | delta_c] updates: weighted model sum
  // plus unweighted control-delta sum, both resolved at finish() (which also
  // advances the server control variate once).
  std::unique_ptr<fl::StreamingAggregator> make_aggregator(
      const nn::ModelState& global, int round) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

 private:
  bool finetune_head_;
  std::size_t model_dim_ = 0;
  std::vector<float> server_control_;         // c
  ClientStore<std::vector<float>> client_controls_;  // c_i
};

}  // namespace calibre::algos
