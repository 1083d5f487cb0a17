// FedEMA (Zhuang et al., ICLR 2022): divergence-aware federated
// self-supervised learning on BYOL. Each client merges the incoming global
// model into its persistent local model with an EMA whose coefficient mu
// scales with the global/local divergence: mu = min(lambda * ||w_g - w_l|| /
// ||w_g||, 1). Personalization probes the client's own merged encoder when
// one exists (the global encoder for novel clients).
#pragma once

#include "algos/client_store.h"
#include "core/pfl_ssl.h"

namespace calibre::algos {

class FedEma : public core::PflSsl {
 public:
  explicit FedEma(const fl::FlConfig& config, float lambda = 1.0f)
      : core::PflSsl(config, ssl::Kind::kByol), lambda_(lambda) {}

  std::string name() const override { return "FedEMA"; }

  fl::ClientUpdate local_update(const nn::ModelState& global,
                                const fl::ClientContext& ctx) override;
  double personalize(const nn::ModelState& global,
                     const fl::PersonalizationContext& ctx) override;

 protected:
  // A client with a merged local model personalizes on it, not on the
  // global state.
  bool personalizes_on_global(int client_id) const override;

 private:
  float lambda_;
  ClientStore<nn::ModelState> local_models_;
};

}  // namespace calibre::algos
