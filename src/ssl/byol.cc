#include "ssl/byol.h"

#include "nn/losses.h"

namespace calibre::ssl {

Byol::Byol(const nn::EncoderConfig& encoder_config, const SslConfig& config,
           std::uint64_t seed)
    : SslMethod(encoder_config, config, seed),
      predictor_(config.proj_dim, config.proj_hidden, config.proj_dim, gen_),
      target_(encoder_config, config, *encoder_, *projector_, gen_) {}

SslForward Byol::forward(const tensor::Tensor& view1,
                         const tensor::Tensor& view2) {
  SslForward out;
  encode_views(view1, view2, out);
  const ag::VarPtr p1 = predictor_.forward(out.h1);
  const ag::VarPtr p2 = predictor_.forward(out.h2);
  const ag::VarPtr t1 = target_.forward(view1);
  const ag::VarPtr t2 = target_.forward(view2);
  const ag::VarPtr loss1 = nn::negative_cosine(p1, ag::detach(t2));
  const ag::VarPtr loss2 = nn::negative_cosine(p2, ag::detach(t1));
  out.loss = ag::mul_scalar(ag::add(loss1, loss2), 0.5f);
  return out;
}

void Byol::after_step() {
  target_.ema_from(*encoder_, *projector_, config_.ema_momentum);
}

std::vector<ag::VarPtr> Byol::trainable_parameters() const {
  std::vector<ag::VarPtr> params = SslMethod::trainable_parameters();
  predictor_.collect_parameters(params);
  return params;
}

}  // namespace calibre::ssl
