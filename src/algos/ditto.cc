#include "algos/ditto.h"

#include "algos/flat.h"

namespace calibre::algos {

nn::ModelState Ditto::initialize() {
  const fl::EncoderHeadModel model =
      fl::make_encoder_head(config_, config_.seed);
  return nn::ModelState::from_parameters(model.all_parameters());
}

void Ditto::train_personal(std::vector<float>& v,
                           const std::vector<float>& anchor,
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
      nn::ModelState(v).apply_to(params);
      fl::supervised_backward(model, params, dataset, batch, config_, gen);
      std::vector<float> grad = flat_grads(params);
      // Prox term gradient: lambda * (v - anchor).
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] += lambda_ * (v[i] - anchor[i]);
      }
      axpy_flat(v, grad, -lr);
    }
  }
}

fl::ClientUpdate Ditto::local_update(const nn::ModelState& global,
                                     const fl::ClientContext& ctx) {
  rng::Generator gen(ctx.seed);
  // FedAvg side: the shared model.
  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  global.apply_to(model.all_parameters());
  fl::train_supervised(model, model.all_parameters(), *ctx.train, config_,
                       config_.local_epochs, gen);

  // Personal side: v with prox toward the received global.
  std::vector<float> v;
  if (!personal_models_.visit(ctx.client_id,
                              [&](const std::vector<float>& s) { v = s; })) {
    v = global.values();
  }
  train_personal(v, global.values(), *ctx.train, config_.local_epochs, gen);
  personal_models_.put(ctx.client_id, std::move(v));

  fl::ClientUpdate update;
  update.state = nn::ModelState::from_parameters(model.all_parameters());
  update.weight = static_cast<float>(ctx.train->size());
  return update;
}

double Ditto::personalize(const nn::ModelState& global,
                          const fl::PersonalizationContext& ctx) {
  rng::Generator gen(ctx.seed);
  std::vector<float> v;
  if (!personal_models_.visit(ctx.client_id,
                              [&](const std::vector<float>& s) { v = s; })) {
    // Novel client: train a personal model from the global within the
    // personalization budget.
    v = global.values();
    train_personal(v, global.values(), *ctx.train, config_.probe.epochs, gen);
  }
  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  nn::ModelState(v).apply_to(model.all_parameters());
  return fl::evaluate_accuracy(model, *ctx.test);
}

}  // namespace calibre::algos
