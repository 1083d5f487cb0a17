#include "algos/fedprox.h"

#include "algos/flat.h"

namespace calibre::algos {

nn::ModelState FedProx::initialize() {
  const fl::EncoderHeadModel model =
      fl::make_encoder_head(config_, config_.seed);
  return nn::ModelState::from_parameters(model.all_parameters());
}

fl::ClientUpdate FedProx::local_update(const nn::ModelState& global,
                                       const fl::ClientContext& ctx) {
  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  const std::vector<ag::VarPtr> params = model.all_parameters();
  global.apply_to(params);
  const std::vector<float>& anchor = global.values();

  rng::Generator gen(ctx.seed);
  const float lr = config_.supervised_opt.learning_rate;
  std::vector<float> w = global.values();
  for (int epoch = 0; epoch < config_.local_epochs; ++epoch) {
    const auto batches = data::make_batches(ctx.train->size(),
                                            config_.batch_size, gen,
                                            /*min_batch=*/2);
    for (const auto& batch : batches) {
      nn::ModelState(w).apply_to(params);
      fl::supervised_backward(model, params, *ctx.train, batch, config_, gen);
      std::vector<float> grad = flat_grads(params);
      // Proximal gradient: mu * (w - w_global).
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] += mu_ * (w[i] - anchor[i]);
      }
      axpy_flat(w, grad, -lr);
    }
  }

  fl::ClientUpdate update;
  update.state = nn::ModelState(std::move(w));
  update.weight = static_cast<float>(ctx.train->size());
  return update;
}

double FedProx::personalize(const nn::ModelState& global,
                            const fl::PersonalizationContext& ctx) {
  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  global.apply_to(model.all_parameters());
  return fl::finetune_and_eval(model, model.head_parameters(), *ctx.train,
                               *ctx.test, config_.probe, ctx.seed);
}

}  // namespace calibre::algos
