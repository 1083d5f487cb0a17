// Calibre (paper §IV): pFL-SSL with
//   (1) the client-adaptive prototype regularizers L_n and L_p mixed into the
//       local SSL objective as L = l_s + alpha * (l_p + l_n), alpha = 0.3;
//   (2) divergence-weighted server aggregation, where each client's weight is
//       scaled by the inverse of its local divergence rate (the mean distance
//       between its encodings and their prototypes).
#pragma once

#include "core/divergence.h"
#include "core/pfl_ssl.h"
#include "core/prototype_loss.h"

namespace calibre::core {

struct CalibreConfig {
  PrototypeLossConfig prototype;  // K, temperature, use_ln / use_lp ablation
  float alpha = 0.3f;             // regularizer mixing weight (paper §V)
  // Ablation switch for the divergence-guided aggregation rule.
  bool divergence_weighted_aggregation = true;
  DivergenceMode divergence_mode = DivergenceMode::kInverse;
  // Prototype count when measuring a client's divergence rate.
  int divergence_prototypes = 10;
};

class Calibre : public PflSsl {
 public:
  Calibre(const fl::FlConfig& config, ssl::Kind kind,
          const CalibreConfig& calibre_config = {},
          const ssl::SslConfig& ssl_config = {});

  std::string name() const override;

  // Divergence-weighted FedAvg over the received updates. Native O(model)
  // fold: each client's unnormalised weight n_c / (d_c + eps)
  // (or n_c * (d_c + eps)) is separable, so divergence weighting streams —
  // normalisation happens once at finish().
  std::unique_ptr<fl::StreamingAggregator> make_aggregator(
      const nn::ModelState& global, int round) override;

  const CalibreConfig& calibre_config() const { return calibre_config_; }

 protected:
  void prepare_local_update(ssl::SslMethod& method,
                            const fl::ClientContext& ctx, rng::Generator& gen,
                            LocalScratch& scratch) override;
  ag::VarPtr build_loss(ssl::SslMethod& method, const ssl::SslForward& fwd,
                        rng::Generator& gen, LocalScratch& scratch) override;
  void finalize_update(ssl::SslMethod& method, const fl::ClientContext& ctx,
                       rng::Generator& gen,
                       fl::ClientUpdate& update) override;

 private:
  CalibreConfig calibre_config_;
};

}  // namespace calibre::core
