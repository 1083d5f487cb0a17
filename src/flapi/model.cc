#include "flapi/model.h"

#include "common/check.h"
#include "data/augment.h"

namespace calibre::fl {

EncoderHeadModel make_encoder_head(const FlConfig& config,
                                   std::uint64_t seed) {
  rng::Generator gen(seed);
  EncoderHeadModel model;
  model.encoder = std::make_unique<nn::MlpEncoder>(config.encoder, gen);
  model.head = std::make_unique<nn::LinearClassifier>(
      config.encoder.feature_dim, config.num_classes, gen);
  return model;
}

float supervised_backward(EncoderHeadModel& model,
                          const std::vector<ag::VarPtr>& params,
                          const data::Dataset& dataset,
                          const std::vector<int>& batch,
                          const FlConfig& config, rng::Generator& gen) {
  const std::vector<int> y = data::take_labels(dataset.labels, batch);
  const tensor::Tensor view =
      data::augment(tensor::take_rows(dataset.x, batch), config.augment, gen);
  for (const ag::VarPtr& p : params) p->zero_grad();
  const ag::VarPtr loss =
      ag::cross_entropy(model.logits(ag::constant(view)), y);
  ag::backward(loss);
  return loss->value(0, 0);
}

float train_supervised(EncoderHeadModel& model,
                       const std::vector<ag::VarPtr>& params,
                       const data::Dataset& dataset, const FlConfig& config,
                       int epochs, rng::Generator& gen) {
  CALIBRE_CHECK(dataset.size() > 0);
  nn::Sgd optimizer(params, config.supervised_opt);
  double total_loss = 0.0;
  int steps = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const auto batches =
        data::make_batches(dataset.size(), config.batch_size, gen,
                           /*min_batch=*/2);
    for (const auto& batch : batches) {
      total_loss +=
          supervised_backward(model, params, dataset, batch, config, gen);
      optimizer.step();
      ++steps;
    }
  }
  return steps == 0 ? 0.0f : static_cast<float>(total_loss / steps);
}

double finetune_and_eval(EncoderHeadModel& model,
                         const std::vector<ag::VarPtr>& params,
                         const data::Dataset& train, const data::Dataset& test,
                         const ProbeConfig& probe, std::uint64_t seed) {
  CALIBRE_CHECK(train.size() > 0);
  rng::Generator gen(seed);
  nn::Sgd optimizer(params, nn::SgdConfig{probe.learning_rate, probe.momentum,
                                          /*weight_decay=*/0.0f});
  for (int epoch = 0; epoch < probe.epochs; ++epoch) {
    const auto batches =
        data::make_batches(train.size(), probe.batch_size, gen);
    for (const auto& batch : batches) {
      optimizer.zero_grad();
      const ag::VarPtr logits = model.logits(
          ag::constant(tensor::take_rows(train.x, batch)));
      ag::backward(
          ag::cross_entropy(logits, data::take_labels(train.labels, batch)));
      optimizer.step();
    }
  }
  return evaluate_accuracy(model, test);
}

double evaluate_accuracy(EncoderHeadModel& model,
                         const data::Dataset& dataset) {
  if (dataset.size() == 0) return 0.0;
  // Evaluation forward: values only, no tape.
  const ag::NoGradGuard no_grad;
  const ag::VarPtr logits = model.logits(ag::constant(dataset.x));
  std::int64_t correct = 0;
  for (std::int64_t r = 0; r < dataset.size(); ++r) {
    if (static_cast<int>(logits->value.argmax_row(r)) ==
        dataset.labels[static_cast<std::size_t>(r)]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

}  // namespace calibre::fl
