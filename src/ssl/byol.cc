#include "ssl/byol.h"

#include "nn/losses.h"
#include "nn/optim.h"

namespace calibre::ssl {

Byol::Byol(const nn::EncoderConfig& encoder_config, const SslConfig& config,
           std::uint64_t seed)
    : SslMethod(encoder_config, config, seed) {
  predictor_ = std::make_unique<nn::ProjectionHead>(
      config.proj_dim, config.proj_hidden, config.proj_dim, gen_);
  target_encoder_ = std::make_unique<nn::MlpEncoder>(encoder_config, gen_);
  target_projector_ = std::make_unique<nn::ProjectionHead>(
      encoder_config.feature_dim, config.proj_hidden, config.proj_dim, gen_);
  // Target starts as a copy of the online network and is frozen: it is only
  // ever moved by EMA, never by gradients.
  nn::copy_parameters(target_encoder_->parameters(), encoder_->parameters());
  nn::copy_parameters(target_projector_->parameters(),
                      projector_->parameters());
  freeze(*target_encoder_);
  freeze(*target_projector_);
}

SslForward Byol::forward(const tensor::Tensor& view1,
                         const tensor::Tensor& view2) {
  SslForward out;
  encode_views(view1, view2, out);
  const ag::VarPtr p1 = predictor_->forward(out.h1);
  const ag::VarPtr p2 = predictor_->forward(out.h2);
  // Target branch (no gradients flow: target is frozen).
  const ag::VarPtr t1 =
      target_projector_->forward(target_encoder_->forward(ag::constant(view1)));
  const ag::VarPtr t2 =
      target_projector_->forward(target_encoder_->forward(ag::constant(view2)));
  const ag::VarPtr loss1 = nn::negative_cosine(p1, ag::detach(t2));
  const ag::VarPtr loss2 = nn::negative_cosine(p2, ag::detach(t1));
  out.loss = ag::mul_scalar(ag::add(loss1, loss2), 0.5f);
  return out;
}

void Byol::after_step() {
  nn::ema_update(target_encoder_->parameters(), encoder_->parameters(),
                 config_.ema_momentum);
  nn::ema_update(target_projector_->parameters(), projector_->parameters(),
                 config_.ema_momentum);
}

std::vector<tensor::Tensor*> Byol::private_tensors() {
  std::vector<tensor::Tensor*> tensors;
  append_values(*target_encoder_, tensors);
  append_values(*target_projector_, tensors);
  return tensors;
}

std::vector<ag::VarPtr> Byol::trainable_parameters() const {
  std::vector<ag::VarPtr> params = SslMethod::trainable_parameters();
  predictor_->collect_parameters(params);
  return params;
}

}  // namespace calibre::ssl
