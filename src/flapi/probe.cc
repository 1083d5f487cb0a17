#include "flapi/probe.h"

#include "common/check.h"
#include "nn/networks.h"
#include "nn/optim.h"

namespace calibre::fl {

double linear_probe_accuracy(const tensor::Tensor& train_features,
                             const std::vector<int>& train_labels,
                             const tensor::Tensor& test_features,
                             const std::vector<int>& test_labels,
                             int num_classes, const ProbeConfig& config,
                             std::uint64_t seed) {
  CALIBRE_CHECK(train_features.rows() ==
                static_cast<std::int64_t>(train_labels.size()));
  CALIBRE_CHECK(test_features.rows() ==
                static_cast<std::int64_t>(test_labels.size()));
  CALIBRE_CHECK(train_features.rows() > 0 && test_features.rows() > 0);

  rng::Generator gen(seed);
  nn::LinearClassifier head(train_features.cols(), num_classes, gen);
  nn::Sgd optimizer(head.parameters(),
                    nn::SgdConfig{config.learning_rate, config.momentum,
                                  /*weight_decay=*/0.0f});
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const auto batches =
        data::make_batches(train_features.rows(), config.batch_size, gen);
    for (const auto& batch : batches) {
      optimizer.zero_grad();
      const ag::VarPtr logits = head.forward(
          ag::constant(tensor::take_rows(train_features, batch)));
      ag::backward(
          ag::cross_entropy(logits, data::take_labels(train_labels, batch)));
      optimizer.step();
    }
  }

  // Evaluation forward: values only, no tape.
  const ag::NoGradGuard no_grad;
  const ag::VarPtr logits = head.forward(ag::constant(test_features));
  std::int64_t correct = 0;
  for (std::int64_t r = 0; r < test_features.rows(); ++r) {
    if (static_cast<int>(logits->value.argmax_row(r)) ==
        test_labels[static_cast<std::size_t>(r)]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) /
         static_cast<double>(test_features.rows());
}

double prototype_probe_accuracy(const tensor::Tensor& train_features,
                                const std::vector<int>& train_labels,
                                const tensor::Tensor& test_features,
                                const std::vector<int>& test_labels,
                                int num_classes) {
  CALIBRE_CHECK(train_features.rows() ==
                static_cast<std::int64_t>(train_labels.size()));
  CALIBRE_CHECK(test_features.rows() ==
                static_cast<std::int64_t>(test_labels.size()));
  CALIBRE_CHECK(train_features.rows() > 0 && test_features.rows() > 0);
  // Per-class prototypes over the client's train features.
  tensor::Tensor prototypes(num_classes, train_features.cols());
  std::vector<int> counts(static_cast<std::size_t>(num_classes), 0);
  for (std::int64_t i = 0; i < train_features.rows(); ++i) {
    const int label = train_labels[static_cast<std::size_t>(i)];
    CALIBRE_CHECK(label >= 0 && label < num_classes);
    ++counts[static_cast<std::size_t>(label)];
    for (std::int64_t d = 0; d < train_features.cols(); ++d) {
      prototypes(label, d) += train_features(i, d);
    }
  }
  for (int k = 0; k < num_classes; ++k) {
    if (counts[static_cast<std::size_t>(k)] > 0) {
      for (std::int64_t d = 0; d < prototypes.cols(); ++d) {
        prototypes(k, d) /=
            static_cast<float>(counts[static_cast<std::size_t>(k)]);
      }
    }
  }
  // Nearest prototype among the classes the client has seen.
  const tensor::Tensor dists =
      tensor::pairwise_sq_dists(test_features, prototypes);
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < test_features.rows(); ++i) {
    int best = -1;
    float best_dist = 0.0f;
    for (int k = 0; k < num_classes; ++k) {
      if (counts[static_cast<std::size_t>(k)] == 0) continue;
      if (best < 0 || dists(i, k) < best_dist) {
        best = k;
        best_dist = dists(i, k);
      }
    }
    if (best == test_labels[static_cast<std::size_t>(i)]) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(test_features.rows());
}

}  // namespace calibre::fl
