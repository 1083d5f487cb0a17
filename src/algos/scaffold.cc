#include "algos/scaffold.h"

#include "common/check.h"
#include "tensor/pool.h"

namespace calibre::algos {
namespace {

// grads of `params` += delta (flat layout matching ModelState order).
void add_flat_to_grads(const std::vector<ag::VarPtr>& params,
                       const std::vector<float>& delta) {
  std::size_t offset = 0;
  for (const ag::VarPtr& p : params) {
    const std::size_t count = static_cast<std::size_t>(p->value.size());
    CALIBRE_CHECK(offset + count <= delta.size());
    for (std::size_t i = 0; i < count; ++i) {
      p->grad.storage()[i] += delta[offset + i];
    }
    offset += count;
  }
  CALIBRE_CHECK(offset == delta.size());
}

std::vector<float> split_front(const std::vector<float>& values,
                               std::size_t count) {
  return {values.begin(), values.begin() + static_cast<std::ptrdiff_t>(count)};
}

std::vector<float> split_back(const std::vector<float>& values,
                              std::size_t count) {
  return {values.begin() + static_cast<std::ptrdiff_t>(count), values.end()};
}

// Streams [model | delta_c] updates: the model half is a weighted mean (fold
// w_i * x_i, normalise at finish), the control half an unweighted mean.
// finish() advances the server control variate in place — called once, on
// the merged root only. Both halves accumulate in exact fixed-point
// (flapi/fixed_accum.h), so merge() of shard-local partials is bit-identical
// to the flat fold for any shard split.
class ScaffoldAggregator : public fl::StreamingAggregator {
 public:
  ScaffoldAggregator(std::size_t model_dim, std::vector<float>& server_control,
                     int num_train_clients)
      : model_dim_(model_dim),
        server_control_(server_control),
        num_train_clients_(num_train_clients) {}

  void fold(fl::ClientUpdate update) override {
    CALIBRE_CHECK(update.state.size() == 2 * model_dim_);
    const double w = static_cast<double>(update.weight);
    CALIBRE_CHECK_MSG(w > 0.0, "non-positive aggregation weight");
    CALIBRE_CHECK_LT(folded_, fl::fixedpoint::kMaxFolds,
                     "too many folds for one accumulator");
    if (acc_x_.empty()) {
      acc_x_.assign_zero(model_dim_);
      acc_delta_c_.assign_zero(model_dim_);
    }
    const std::vector<float>& values = update.state.values();
    acc_x_.add_scaled(values.data(), w);
    acc_delta_c_.add_scaled(values.data() + model_dim_, 1.0);
    total_weight_ += fl::fixedpoint::quantize(w);
    ++folded_;
  }

  nn::ModelState finish() override {
    CALIBRE_CHECK_MSG(folded_ > 0, "finish() before any update was folded");
    // c <- c + (|S| / N) * mean(delta_c_i).
    const float participation =
        static_cast<float>(folded_) /
        static_cast<float>(std::max(1, num_train_clients_));
    const double total = fl::fixedpoint::to_double(total_weight_);
    std::vector<float> packed = tensor::pool::take<float>(2 * model_dim_);
    packed.resize(2 * model_dim_);
    acc_x_.read(total, packed.data());
    // The control half first holds mean(delta_c_i), then becomes c.
    acc_delta_c_.read(static_cast<double>(folded_), packed.data() + model_dim_);
    for (std::size_t i = 0; i < model_dim_; ++i) {
      server_control_[i] += participation * packed[model_dim_ + i];
      packed[model_dim_ + i] = server_control_[i];
    }
    return nn::ModelState(std::move(packed));
  }

  void merge(fl::StreamingAggregator&& other) override {
    auto* rhs = dynamic_cast<ScaffoldAggregator*>(&other);
    CALIBRE_CHECK_MSG(rhs != nullptr && rhs != this,
                      "merge() needs a distinct ScaffoldAggregator");
    CALIBRE_CHECK_MSG(rhs->model_dim_ == model_dim_ &&
                          &rhs->server_control_ == &server_control_,
                      "shard aggregators belong to different SCAFFOLD servers");
    if (rhs->folded_ == 0) return;
    CALIBRE_CHECK_LE(folded_ + rhs->folded_, fl::fixedpoint::kMaxFolds,
                     "merged fold count exceeds the accumulator bound");
    if (folded_ == 0) {
      acc_x_ = std::move(rhs->acc_x_);
      acc_delta_c_ = std::move(rhs->acc_delta_c_);
    } else {
      acc_x_.add(rhs->acc_x_);
      acc_delta_c_.add(rhs->acc_delta_c_);
    }
    total_weight_ += rhs->total_weight_;
    folded_ += rhs->folded_;
    rhs->acc_x_.clear();
    rhs->acc_delta_c_.clear();
    rhs->total_weight_ = 0;
    rhs->folded_ = 0;
  }

  bool mergeable() const override { return true; }

 private:
  std::size_t model_dim_;
  std::vector<float>& server_control_;
  int num_train_clients_;
  fl::fixedpoint::Accumulator acc_x_;
  fl::fixedpoint::Accumulator acc_delta_c_;
  fl::fixedpoint::Acc total_weight_ = 0;
};

}  // namespace

Scaffold::Scaffold(const fl::FlConfig& config, bool finetune_head)
    : fl::Algorithm(config), finetune_head_(finetune_head) {
  const fl::EncoderHeadModel model =
      fl::make_encoder_head(config_, config_.seed);
  model_dim_ =
      nn::ModelState::from_parameters(model.all_parameters()).size();
  server_control_.assign(model_dim_, 0.0f);
}

nn::ModelState Scaffold::initialize() {
  const fl::EncoderHeadModel model =
      fl::make_encoder_head(config_, config_.seed);
  std::vector<float> packed =
      nn::ModelState::from_parameters(model.all_parameters()).values();
  packed.insert(packed.end(), server_control_.begin(), server_control_.end());
  return nn::ModelState(std::move(packed));
}

fl::ClientUpdate Scaffold::local_update(const nn::ModelState& global,
                                        const fl::ClientContext& ctx) {
  CALIBRE_CHECK(global.size() == 2 * model_dim_);
  const std::vector<float> x = split_front(global.values(), model_dim_);
  const std::vector<float> c = split_back(global.values(), model_dim_);
  std::vector<float> ci;
  if (!client_controls_.visit(ctx.client_id,
                              [&](const std::vector<float>& s) { ci = s; })) {
    ci.assign(model_dim_, 0.0f);
  }

  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  const std::vector<ag::VarPtr> params = model.all_parameters();
  nn::ModelState(x).apply_to(params);

  // Correction term (c - c_i) added to every SGD step's gradient.
  std::vector<float> correction(model_dim_);
  for (std::size_t i = 0; i < model_dim_; ++i) correction[i] = c[i] - ci[i];

  // SCAFFOLD assumes plain (momentum-free) local SGD.
  const float lr = config_.supervised_opt.learning_rate;
  nn::Sgd optimizer(params, nn::SgdConfig{lr, 0.0f, 0.0f});
  rng::Generator gen(ctx.seed);
  int steps = 0;
  for (int epoch = 0; epoch < config_.local_epochs; ++epoch) {
    const auto batches = data::make_batches(ctx.train->size(),
                                            config_.batch_size, gen,
                                            /*min_batch=*/2);
    for (const auto& batch : batches) {
      fl::supervised_backward(model, params, *ctx.train, batch, config_, gen);
      add_flat_to_grads(params, correction);
      optimizer.step();
      ++steps;
    }
  }
  CALIBRE_CHECK(steps > 0);

  // Option II control update: c_i+ = c_i - c + (x - y_i) / (K * lr).
  const std::vector<float> y_flat =
      nn::ModelState::from_parameters(params).values();
  std::vector<float> ci_new(model_dim_);
  std::vector<float> delta_c(model_dim_);
  const float inv_klr = 1.0f / (static_cast<float>(steps) * lr);
  for (std::size_t i = 0; i < model_dim_; ++i) {
    ci_new[i] = ci[i] - c[i] + (x[i] - y_flat[i]) * inv_klr;
    delta_c[i] = ci_new[i] - ci[i];
  }
  client_controls_.put(ctx.client_id, std::move(ci_new));

  fl::ClientUpdate update;
  std::vector<float> packed = y_flat;
  packed.insert(packed.end(), delta_c.begin(), delta_c.end());
  update.state = nn::ModelState(std::move(packed));
  update.weight = static_cast<float>(ctx.train->size());
  return update;
}

std::unique_ptr<fl::StreamingAggregator> Scaffold::make_aggregator(
    const nn::ModelState& global, int /*round*/) {
  CALIBRE_CHECK(global.size() == 2 * model_dim_);
  return std::make_unique<ScaffoldAggregator>(model_dim_, server_control_,
                                              config_.num_train_clients);
}

double Scaffold::personalize(const nn::ModelState& global,
                             const fl::PersonalizationContext& ctx) {
  CALIBRE_CHECK(global.size() == 2 * model_dim_);
  fl::EncoderHeadModel model = fl::make_encoder_head(config_, config_.seed);
  nn::ModelState(split_front(global.values(), model_dim_))
      .apply_to(model.all_parameters());
  if (!finetune_head_) {
    return fl::evaluate_accuracy(model, *ctx.test);
  }
  return fl::finetune_and_eval(model, model.head_parameters(), *ctx.train,
                               *ctx.test, config_.probe, ctx.seed);
}

}  // namespace calibre::algos
