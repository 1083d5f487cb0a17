#include "ssl/mocov2.h"

#include "nn/losses.h"

namespace calibre::ssl {

MoCoV2::MoCoV2(const nn::EncoderConfig& encoder_config,
               const SslConfig& config, std::uint64_t seed)
    : SslMethod(encoder_config, config, seed),
      key_(encoder_config, config, *encoder_, *projector_, gen_) {
  // Seed the queue with random directions so InfoNCE is defined from the
  // first step; real keys displace them within a few iterations.
  queue_ = tensor::l2_normalize_rows(
      tensor::Tensor::randn(config.moco_queue_size, config.proj_dim, gen_));
}

SslForward MoCoV2::forward(const tensor::Tensor& view1,
                           const tensor::Tensor& view2) {
  SslForward out;
  encode_views(view1, view2, out);
  // Keys from the frozen momentum branch.
  const ag::VarPtr k1 = key_.forward(view1);
  const ag::VarPtr k2 = key_.forward(view2);
  const ag::VarPtr loss1 =
      nn::info_nce(out.h1, ag::detach(k2), queue_, config_.temperature);
  const ag::VarPtr loss2 =
      nn::info_nce(out.h2, ag::detach(k1), queue_, config_.temperature);
  out.loss = ag::mul_scalar(ag::add(loss1, loss2), 0.5f);
  pending_keys_ = tensor::l2_normalize_rows(
      tensor::concat_rows({k1->value, k2->value}));
  return out;
}

void MoCoV2::after_step() {
  key_.ema_from(*encoder_, *projector_, config_.ema_momentum);
  // Ring-buffer enqueue of this step's keys.
  for (std::int64_t r = 0; r < pending_keys_.rows(); ++r) {
    for (std::int64_t c = 0; c < queue_.cols(); ++c) {
      queue_(queue_cursor_, c) = pending_keys_(r, c);
    }
    queue_cursor_ = (queue_cursor_ + 1) % queue_.rows();
  }
  pending_keys_ = tensor::Tensor();
}

std::vector<tensor::Tensor*> MoCoV2::private_tensors() { return {&queue_}; }

void MoCoV2::reset_private_counters() {
  queue_cursor_ = 0;
  pending_keys_ = tensor::Tensor();
}

}  // namespace calibre::ssl
