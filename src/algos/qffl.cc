#include "algos/qffl.h"

#include <cmath>

#include "common/check.h"

namespace calibre::algos {

nn::ModelState QFfl::initialize() {
  const fl::EncoderHeadModel model =
      fl::make_encoder_head(config_, config_.seed);
  return nn::ModelState::from_parameters(model.all_parameters());
}

fl::ClientUpdate QFfl::local_update(const nn::ModelState& global,
                                    const fl::ClientContext& ctx) {
  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  global.apply_to(model.all_parameters());
  rng::Generator gen(ctx.seed);
  const float mean_loss =
      fl::train_supervised(model, model.all_parameters(), *ctx.train, config_,
                           config_.local_epochs, gen);
  fl::ClientUpdate update;
  update.state = nn::ModelState::from_parameters(model.all_parameters());
  update.weight = static_cast<float>(ctx.train->size());
  update.scalars["loss"] = mean_loss;
  return update;
}

std::unique_ptr<fl::StreamingAggregator> QFfl::make_aggregator(
    const nn::ModelState& /*global*/, int /*round*/) {
  // w_c ∝ n_c * (L_c + eps)^q : high-loss (struggling) clients dominate.
  // Mergeability comes free: WeightedStreamingAggregator accumulates in
  // exact fixed point, so partials carrying this weight fn merge
  // bit-identically.
  const double q = static_cast<double>(q_);
  return std::make_unique<fl::WeightedStreamingAggregator>(
      [q](const fl::ClientUpdate& update) {
        const auto it = update.scalars.find("loss");
        const double loss = it == update.scalars.end()
                                ? 1.0
                                : static_cast<double>(it->second);
        return static_cast<double>(update.weight) *
               std::pow(std::max(loss, 1e-4), q);
      });
}

double QFfl::personalize(const nn::ModelState& global,
                         const fl::PersonalizationContext& ctx) {
  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  global.apply_to(model.all_parameters());
  return fl::finetune_and_eval(model, model.head_parameters(), *ctx.train,
                               *ctx.test, config_.probe, ctx.seed);
}

}  // namespace calibre::algos
