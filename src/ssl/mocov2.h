// MoCo v2 (He et al. / Chen et al.): InfoNCE against a queue of negatives
// produced by an EMA momentum encoder.
#pragma once

#include "ssl/method.h"

namespace calibre::ssl {

class MoCoV2 : public SslMethod {
 public:
  MoCoV2(const nn::EncoderConfig& encoder_config, const SslConfig& config,
         std::uint64_t seed);

  std::string name() const override { return "MoCoV2"; }
  Kind kind() const override { return Kind::kMoCoV2; }

  SslForward forward(const tensor::Tensor& view1,
                     const tensor::Tensor& view2) override;

  // EMA update of the key network; commits this step's keys to the queue.
  void after_step() override;

  const tensor::Tensor& queue() const { return queue_; }

  // The key encoder and projector.
  MomentumBranch* momentum_branch() override { return &key_; }

 protected:
  // The queue.
  std::vector<tensor::Tensor*> private_tensors() override;
  // Cursor back to 0, no pending keys.
  void reset_private_counters() override;

 private:
  MomentumBranch key_;  // drawn before the queue
  tensor::Tensor queue_;          // [queue_size, proj_dim], L2-normalised rows
  std::int64_t queue_cursor_ = 0;
  tensor::Tensor pending_keys_;   // keys produced by the last forward()
};

}  // namespace calibre::ssl
