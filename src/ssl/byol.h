// BYOL (Grill et al., NeurIPS 2020): an online network (encoder + projector +
// predictor) regresses the projection of an EMA target network; the loss is
// the symmetric negative cosine similarity. No negative pairs.
#pragma once

#include "ssl/method.h"

namespace calibre::ssl {

class Byol : public SslMethod {
 public:
  Byol(const nn::EncoderConfig& encoder_config, const SslConfig& config,
       std::uint64_t seed);

  std::string name() const override { return "BYOL"; }
  Kind kind() const override { return Kind::kByol; }

  SslForward forward(const tensor::Tensor& view1,
                     const tensor::Tensor& view2) override;

  // EMA update of the target network toward the online network.
  void after_step() override;

  // Online encoder + projector + predictor.
  std::vector<ag::VarPtr> trainable_parameters() const override;

  // The target encoder and projector.
  MomentumBranch* momentum_branch() override { return &target_; }

 private:
  // Declaration order is construction order: the predictor's draws come
  // before the target's.
  nn::ProjectionHead predictor_;
  MomentumBranch target_;
};

}  // namespace calibre::ssl
