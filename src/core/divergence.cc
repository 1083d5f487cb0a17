#include "core/divergence.h"

#include "cluster/kmeans.h"
#include "common/check.h"

namespace calibre::core {

float client_divergence(ssl::SslMethod& method, const tensor::Tensor& inputs,
                        int k, rng::Generator& gen) {
  CALIBRE_CHECK(inputs.rows() > 0);
  const tensor::Tensor encodings = method.encode(inputs);
  cluster::KMeansConfig config;
  config.k = std::max(2, std::min<int>(k, static_cast<int>(inputs.rows())));
  return cluster::kmeans(encodings, config, gen).mean_distance;
}

float divergence_weight(float sample_weight, float divergence,
                        DivergenceMode mode) {
  CALIBRE_CHECK_MSG(divergence >= 0.0f, "negative divergence");
  constexpr float kEps = 1e-3f;
  return mode == DivergenceMode::kInverse
             ? sample_weight / (divergence + kEps)
             : sample_weight * (divergence + kEps);
}

}  // namespace calibre::core
