#include "data/dataset.h"

#include "common/check.h"

namespace calibre::data {

Dataset Dataset::subset(std::span<const int> indices) const {
  Dataset out;
  out.x = tensor::take_rows(x, indices);
  if (latents.rows() > 0) {
    out.latents = tensor::take_rows(latents, indices);
  }
  out.oracle = oracle;
  out.labels = take_labels(labels, indices);
  out.num_classes = num_classes;
  return out;
}

std::vector<int> take_labels(const std::vector<int>& labels,
                             std::span<const int> indices) {
  std::vector<int> out;
  out.reserve(indices.size());
  for (const int index : indices) {
    CALIBRE_CHECK(index >= 0 && index < static_cast<int>(labels.size()));
    out.push_back(labels[static_cast<std::size_t>(index)]);
  }
  return out;
}

std::vector<int> Dataset::labeled_indices() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] >= 0) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> Dataset::class_histogram() const {
  std::vector<int> histogram(static_cast<std::size_t>(num_classes), 0);
  for (const int label : labels) {
    if (label >= 0) {
      CALIBRE_CHECK(label < num_classes);
      ++histogram[static_cast<std::size_t>(label)];
    }
  }
  return histogram;
}

std::vector<std::vector<int>> Dataset::indices_by_class() const {
  std::vector<std::vector<int>> by_class(
      static_cast<std::size_t>(num_classes));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const int label = labels[i];
    if (label >= 0) {
      CALIBRE_CHECK(label < num_classes);
      by_class[static_cast<std::size_t>(label)].push_back(
          static_cast<int>(i));
    }
  }
  return by_class;
}

std::vector<std::vector<int>> make_batches(std::int64_t n, int batch_size,
                                           rng::Generator& gen,
                                           int min_batch) {
  CALIBRE_CHECK(batch_size > 0);
  std::vector<int> order(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] =
      static_cast<int>(i);
  gen.shuffle(order);
  std::vector<std::vector<int>> batches;
  for (std::int64_t begin = 0; begin < n; begin += batch_size) {
    const std::int64_t end = std::min<std::int64_t>(n, begin + batch_size);
    if (end - begin < min_batch) break;
    batches.emplace_back(order.begin() + begin, order.begin() + end);
  }
  return batches;
}

}  // namespace calibre::data
