#include "core/calibre.h"

#include "cluster/kmeans.h"
#include "common/check.h"
#include "core/divergence.h"

namespace calibre::core {

Calibre::Calibre(const fl::FlConfig& config, ssl::Kind kind,
                 const CalibreConfig& calibre_config,
                 const ssl::SslConfig& ssl_config)
    : PflSsl(config, kind, ssl_config), calibre_config_(calibre_config) {}

std::string Calibre::name() const {
  std::string name = "Calibre (" + ssl::kind_name(kind_) + ")";
  const bool full = calibre_config_.prototype.use_ln &&
                    calibre_config_.prototype.use_lp;
  if (!full) {
    name += calibre_config_.prototype.use_ln   ? " [Ln]"
            : calibre_config_.prototype.use_lp ? " [Lp]"
                                               : " [none]";
  }
  if (!calibre_config_.divergence_weighted_aggregation) name += " [fedavg]";
  return name;
}

void Calibre::prepare_local_update(ssl::SslMethod& method,
                                   const fl::ClientContext& ctx,
                                   rng::Generator& gen,
                                   LocalScratch& scratch) {
  if (calibre_config_.prototype.scope != PrototypeScope::kLocalDataset) {
    return;
  }
  // Cluster the client's full local encodings once; batches are assigned to
  // these fixed centroids for stable pseudo-labels.
  const tensor::Tensor encodings = method.encode(ctx.train->x);
  cluster::KMeansConfig kmeans_config;
  kmeans_config.k = std::max(
      2, std::min<int>(calibre_config_.prototype.num_prototypes,
                       static_cast<int>(encodings.rows())));
  scratch.fixed_centroids =
      cluster::kmeans(encodings, kmeans_config, gen).centroids;
}

ag::VarPtr Calibre::build_loss(ssl::SslMethod& /*method*/,
                               const ssl::SslForward& fwd,
                               rng::Generator& gen, LocalScratch& scratch) {
  const PrototypeLosses proto = compute_prototype_losses(
      fwd, calibre_config_.prototype, gen,
      scratch.fixed_centroids.rows() > 0 ? &scratch.fixed_centroids
                                         : nullptr);
  ag::VarPtr loss = fwd.loss;
  ag::VarPtr reg;
  if (proto.l_n && proto.l_p) {
    reg = ag::add(proto.l_n, proto.l_p);
  } else if (proto.l_n) {
    reg = proto.l_n;
  } else if (proto.l_p) {
    reg = proto.l_p;
  }
  if (reg) {
    loss = ag::add(loss, ag::mul_scalar(reg, calibre_config_.alpha));
  }
  return loss;
}

void Calibre::finalize_update(ssl::SslMethod& method,
                              const fl::ClientContext& ctx,
                              rng::Generator& gen, fl::ClientUpdate& update) {
  // The client's local divergence rate over its own samples, computed with
  // the freshly trained encoder; shipped with the update as a scalar.
  update.scalars["divergence"] = client_divergence(
      method, ctx.train->x, calibre_config_.divergence_prototypes, gen);
}

std::unique_ptr<fl::StreamingAggregator> Calibre::make_aggregator(
    const nn::ModelState& global, int round) {
  if (!calibre_config_.divergence_weighted_aggregation) {
    return PflSsl::make_aggregator(global, round);
  }
  // The shared fold normalises the per-update weights by their running
  // total at finish(); its fixed-point accumulators let agg_shards split
  // the fold into partials without changing an output bit.
  const DivergenceMode mode = calibre_config_.divergence_mode;
  return std::make_unique<fl::WeightedStreamingAggregator>(
      [mode](const fl::ClientUpdate& update) {
        const auto it = update.scalars.find("divergence");
        const float d = it == update.scalars.end() ? 0.0f : it->second;
        return static_cast<double>(divergence_weight(update.weight, d, mode));
      });
}

}  // namespace calibre::core
