#include "algos/apfl.h"

#include "algos/flat.h"

namespace calibre::algos {

nn::ModelState Apfl::initialize() {
  const fl::EncoderHeadModel model =
      fl::make_encoder_head(config_, config_.seed);
  return nn::ModelState::from_parameters(model.all_parameters());
}

void Apfl::train_personal(std::vector<float>& v, const std::vector<float>& w,
                          const data::Dataset& dataset, int epochs,
                          rng::Generator& gen) {
  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  const std::vector<ag::VarPtr> params = model.all_parameters();
  const float lr = config_.supervised_opt.learning_rate;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const auto batches = data::make_batches(dataset.size(),
                                            config_.batch_size, gen,
                                            /*min_batch=*/2);
    for (const auto& batch : batches) {
      // Gradient of the mixed model's loss, applied to v scaled by alpha.
      nn::ModelState(mix_flat(v, w, alpha_)).apply_to(params);
      fl::supervised_backward(model, params, dataset, batch, config_, gen);
      axpy_flat(v, flat_grads(params), -lr * alpha_);
    }
  }
}

fl::ClientUpdate Apfl::local_update(const nn::ModelState& global,
                                    const fl::ClientContext& ctx) {
  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  global.apply_to(model.all_parameters());
  rng::Generator gen(ctx.seed);

  // Standard local steps on the shared model w.
  fl::train_supervised(model, model.all_parameters(), *ctx.train, config_,
                       config_.local_epochs, gen);
  const std::vector<float> w =
      nn::ModelState::from_parameters(model.all_parameters()).values();

  // Personal model v descends the mixture loss.
  std::vector<float> v;
  if (!personal_models_.visit(ctx.client_id,
                              [&](const std::vector<float>& s) { v = s; })) {
    v = global.values();
  }
  train_personal(v, w, *ctx.train, config_.local_epochs, gen);
  personal_models_.put(ctx.client_id, std::move(v));

  fl::ClientUpdate update;
  update.state = nn::ModelState(w);
  update.weight = static_cast<float>(ctx.train->size());
  return update;
}

double Apfl::personalize(const nn::ModelState& global,
                         const fl::PersonalizationContext& ctx) {
  rng::Generator gen(ctx.seed);
  std::vector<float> v;
  if (!personal_models_.visit(ctx.client_id,
                              [&](const std::vector<float>& s) { v = s; })) {
    // Novel client: personalize v from the global model within the
    // 10-epoch budget.
    v = global.values();
    train_personal(v, global.values(), *ctx.train, config_.probe.epochs, gen);
  }
  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  nn::ModelState(mix_flat(v, global.values(), alpha_))
      .apply_to(model.all_parameters());
  return fl::evaluate_accuracy(model, *ctx.test);
}

}  // namespace calibre::algos
