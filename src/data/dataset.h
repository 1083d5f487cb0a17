// In-memory dataset representation.
//
// A Dataset is a dense [N, input_dim] feature matrix plus integer labels
// (label -1 marks unlabeled samples, used by the STL-10-like pool). Client
// shards are expressed as index lists into a shared Dataset, so partitioning
// never copies sample data.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace calibre::data {

class ViewOracle;  // defined in data/synthetic.h

struct Dataset {
  tensor::Tensor x;         // [N, input_dim]
  std::vector<int> labels;  // size N; -1 = unlabeled
  // Hidden class latents [N, latent_dim] (synthetic datasets only; empty
  // otherwise). Never exposed to algorithms directly — the ViewOracle uses
  // them to generate semantically aligned augmented views, the stand-in for
  // crop/color-jitter pipelines on natural images.
  tensor::Tensor latents;
  // View generator shared by all splits of a synthetic dataset (null for
  // datasets without one). When set together with `latents`, SSL training
  // draws oracle views instead of generic pixel-space augmentation.
  std::shared_ptr<const ViewOracle> oracle;
  int num_classes = 0;

  std::int64_t size() const { return x.rows(); }
  std::int64_t input_dim() const { return x.cols(); }

  // Materialises the subset selected by `indices` (repetition allowed).
  Dataset subset(std::span<const int> indices) const;
  Dataset subset(std::initializer_list<int> indices) const {
    return subset(std::span<const int>(indices.begin(), indices.size()));
  }

  // Indices of labeled samples.
  std::vector<int> labeled_indices() const;

  // Per-class sample counts over labeled samples (size num_classes).
  std::vector<int> class_histogram() const;

  // Indices grouped by class; unlabeled samples are skipped.
  std::vector<std::vector<int>> indices_by_class() const;
};

// labels[indices[i]] for every i, in order.
std::vector<int> take_labels(const std::vector<int>& labels,
                             std::span<const int> indices);

// Shuffled mini-batch index lists covering [0, n). The final partial batch is
// kept when it has at least `min_batch` elements (losses like NT-Xent need a
// minimum batch to be meaningful).
std::vector<std::vector<int>> make_batches(std::int64_t n, int batch_size,
                                           rng::Generator& gen,
                                           int min_batch = 1);

}  // namespace calibre::data
