#include "algos/fedema.h"

#include <algorithm>

namespace calibre::algos {

fl::ClientUpdate FedEma::local_update(const nn::ModelState& global,
                                      const fl::ClientContext& ctx) {
  nn::ModelState merged = global;
  local_models_.visit(ctx.client_id, [&](const nn::ModelState& local) {
    const float divergence = global.l2_distance(local);
    const float mu =
        std::min(lambda_ * divergence / (global.norm() + 1e-8f), 1.0f);
    // merged = mu * local + (1 - mu) * global.
    merged = local;
    merged.ema_merge(global, mu);
  });
  fl::ClientUpdate update = PflSsl::local_update(merged, ctx);
  local_models_.put(ctx.client_id, update.state);
  return update;
}

double FedEma::personalize(const nn::ModelState& global,
                           const fl::PersonalizationContext& ctx) {
  // Copy the local model out (get, not visit): personalize trains for many
  // steps and must not run under the shard lock.
  if (const auto local = local_models_.get(ctx.client_id)) {
    return PflSsl::personalize(*local, ctx);
  }
  return PflSsl::personalize(global, ctx);
}

bool FedEma::personalizes_on_global(int client_id) const {
  return !local_models_.visit(client_id, [](const nn::ModelState&) {});
}

}  // namespace calibre::algos
