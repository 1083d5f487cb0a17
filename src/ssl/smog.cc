#include "ssl/smog.h"

#include "cluster/kmeans.h"

namespace calibre::ssl {

Smog::Smog(const nn::EncoderConfig& encoder_config, const SslConfig& config,
           std::uint64_t seed)
    : SslMethod(encoder_config, config, seed),
      momentum_(encoder_config, config, *encoder_, *projector_, gen_) {
  groups_ = tensor::l2_normalize_rows(
      tensor::Tensor::randn(config.num_prototypes, config.proj_dim, gen_));
}

SslForward Smog::forward(const tensor::Tensor& view1,
                         const tensor::Tensor& view2) {
  SslForward out;
  encode_views(view1, view2, out);
  // Momentum branch encodes view2 and picks the group for each instance.
  const tensor::Tensor k =
      tensor::l2_normalize_rows(momentum_.forward(view2)->value);
  pending_assignments_ = cluster::assign_to_centroids(k, groups_);
  pending_features_ = k;

  // Online branch: both views predict the group of their instance.
  const ag::VarPtr groups = ag::constant(groups_);
  const float inv_temp = 1.0f / config_.temperature;
  const ag::VarPtr logits1 = ag::mul_scalar(
      ag::matmul_nt(ag::l2_normalize(out.h1), groups), inv_temp);
  const ag::VarPtr logits2 = ag::mul_scalar(
      ag::matmul_nt(ag::l2_normalize(out.h2), groups), inv_temp);
  const ag::VarPtr loss1 = ag::cross_entropy(logits1, pending_assignments_);
  const ag::VarPtr loss2 = ag::cross_entropy(logits2, pending_assignments_);
  out.loss = ag::mul_scalar(ag::add(loss1, loss2), 0.5f);
  return out;
}

void Smog::after_step() {
  momentum_.ema_from(*encoder_, *projector_, config_.ema_momentum);
  if (pending_features_.rows() == 0) return;
  // Synchronous group update: move each assigned group toward the mean of
  // its assigned momentum features, then re-normalise.
  const tensor::Tensor means = cluster::cluster_means(
      pending_features_, pending_assignments_,
      static_cast<int>(groups_.rows()));
  std::vector<int> counts(static_cast<std::size_t>(groups_.rows()), 0);
  for (const int a : pending_assignments_) {
    ++counts[static_cast<std::size_t>(a)];
  }
  for (std::int64_t g = 0; g < groups_.rows(); ++g) {
    if (counts[static_cast<std::size_t>(g)] == 0) continue;
    for (std::int64_t c = 0; c < groups_.cols(); ++c) {
      groups_(g, c) = config_.ema_momentum * groups_(g, c) +
                      (1.0f - config_.ema_momentum) * means(g, c);
    }
  }
  groups_ = tensor::l2_normalize_rows(groups_);
  pending_features_ = tensor::Tensor();
  pending_assignments_.clear();
}

std::vector<tensor::Tensor*> Smog::private_tensors() { return {&groups_}; }

void Smog::reset_private_counters() {
  pending_features_ = tensor::Tensor();
  pending_assignments_.clear();
}

}  // namespace calibre::ssl
