#include "algos/perfedavg.h"

#include "algos/flat.h"

namespace calibre::algos {

nn::ModelState PerFedAvg::initialize() {
  const fl::EncoderHeadModel model =
      fl::make_encoder_head(config_, config_.seed);
  return nn::ModelState::from_parameters(model.all_parameters());
}

fl::ClientUpdate PerFedAvg::local_update(const nn::ModelState& global,
                                         const fl::ClientContext& ctx) {
  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  const std::vector<ag::VarPtr> params = model.all_parameters();
  global.apply_to(params);
  rng::Generator gen(ctx.seed);
  const float lr = config_.supervised_opt.learning_rate;

  for (int epoch = 0; epoch < config_.local_epochs; ++epoch) {
    const auto batches = data::make_batches(ctx.train->size(),
                                            config_.batch_size, gen,
                                            /*min_batch=*/2);
    for (std::size_t b = 0; b + 1 < batches.size(); b += 2) {
      // theta: the pre-adaptation parameters.
      std::vector<float> theta =
          nn::ModelState::from_parameters(params).values();
      // Inner step on batch b.
      fl::supervised_backward(model, params, *ctx.train, batches[b], config_,
                              gen);
      std::vector<float> adapted = theta;
      axpy_flat(adapted, flat_grads(params), -lr);
      nn::ModelState(adapted).apply_to(params);
      // Outer gradient evaluated at the adapted point, on batch b+1.
      fl::supervised_backward(model, params, *ctx.train, batches[b + 1],
                              config_, gen);
      // FO-MAML: apply the outer gradient to theta.
      axpy_flat(theta, flat_grads(params), -lr);
      nn::ModelState(theta).apply_to(params);
    }
  }

  fl::ClientUpdate update;
  update.state = nn::ModelState::from_parameters(params);
  update.weight = static_cast<float>(ctx.train->size());
  return update;
}

double PerFedAvg::personalize(const nn::ModelState& global,
                              const fl::PersonalizationContext& ctx) {
  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  global.apply_to(model.all_parameters());
  // Local adaptation of the meta-model (full model, probe schedule).
  return fl::finetune_and_eval(model, model.all_parameters(), *ctx.train,
                               *ctx.test, config_.probe, ctx.seed);
}

}  // namespace calibre::algos
