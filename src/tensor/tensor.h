// A small dense float tensor.
//
// The library is 2-D centric: almost every object is a [rows, cols] matrix
// (a batch of feature vectors, a weight matrix, a similarity matrix). Tensor
// stores row-major contiguous floats and provides exactly the operations the
// autograd layer needs. Shapes are checked eagerly with CALIBRE_CHECK.
//
// Broadcasting: binary elementwise ops support full 2-D broadcasting, i.e.
// each dimension must either match or be 1 on one side ([N,D] op [1,D],
// [N,D] op [N,1], [N,D] op [1,1], and the symmetric cases).
//
// Storage: element data lives in a std::vector backed by the per-thread
// buffer pool (tensor/pool.h) — construction acquires a recycled buffer,
// destruction returns it to the calling thread's free lists. Callers that
// need a plain std::vector<float> (serde, checkpoints) use to_vector().
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "tensor/pool.h"
#include "tensor/rng.h"

namespace calibre::tensor {

// Pooled storage behind every Tensor. Still a std::vector instantiation, so
// iteration/indexing/data() work as before; only contexts requiring the
// exact type std::vector<float> need the to_vector() adapter.
using FloatStore = std::vector<float, pool::PoolAllocator>;

class Tensor {
 public:
  // Empty 0x0 tensor.
  Tensor() = default;

  // Zero-initialised tensor of the given shape.
  Tensor(std::int64_t rows, std::int64_t cols);

  // Tensor wrapping the given row-major data (data.size() == rows*cols).
  Tensor(std::int64_t rows, std::int64_t cols, std::vector<float> data);

  // --- factories -----------------------------------------------------------
  // Tensor with UNSPECIFIED contents — for op outputs that overwrite every
  // element before the tensor escapes. Never hand one to a caller without
  // filling it.
  static Tensor uninit(std::int64_t rows, std::int64_t cols);
  static Tensor zeros(std::int64_t rows, std::int64_t cols);
  static Tensor ones(std::int64_t rows, std::int64_t cols);
  static Tensor full(std::int64_t rows, std::int64_t cols, float value);
  static Tensor eye(std::int64_t n);
  // 1xN row vector from values.
  static Tensor row(std::initializer_list<float> values);
  static Tensor row(const std::vector<float>& values);
  // N(0, stddev^2) entries.
  static Tensor randn(std::int64_t rows, std::int64_t cols,
                      rng::Generator& gen, float stddev = 1.0f);
  // U[lo, hi) entries.
  static Tensor rand_uniform(std::int64_t rows, std::int64_t cols,
                             rng::Generator& gen, float lo, float hi);

  // --- shape / element access ----------------------------------------------
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t size() const { return rows_ * cols_; }
  bool same_shape(const Tensor& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  float& operator()(std::int64_t r, std::int64_t c);
  float operator()(std::int64_t r, std::int64_t c) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  FloatStore& storage() { return data_; }
  const FloatStore& storage() const { return data_; }
  // Copy of the elements as a plain std::vector<float> (serde/checkpoints).
  std::vector<float> to_vector() const {
    return std::vector<float>(data_.begin(), data_.end());
  }

  // --- in-place helpers (used by the optimizer / gradient buffers and the
  // autograd backward accumulation path) ------------------------------------
  void fill(float value);
  void zero() { fill(0.0f); }
  // this += other (same shape).
  void add_(const Tensor& other);
  // this += alpha * other (same shape).
  void axpy_(float alpha, const Tensor& other);
  // this *= alpha.
  void scale_(float alpha);
  // this *= alpha (alias of scale_ matching the mul_scalar op name).
  void mul_scalar_(float alpha) { scale_(alpha); }
  // this *= other elementwise (same shape).
  void mul_(const Tensor& other);
  // this /= other elementwise (same shape).
  void div_(const Tensor& other);

  // --- reductions ----------------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  // Squared Frobenius norm.
  float squared_norm() const;
  // Index of the max element in row r.
  std::int64_t argmax_row(std::int64_t r) const;

  // Copy of row r as a 1xC tensor.
  Tensor row_copy(std::int64_t r) const;

  std::string shape_string() const;

 private:
  struct UninitTag {};
  Tensor(std::int64_t rows, std::int64_t cols, UninitTag);

  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  FloatStore data_;
};

// --- elementwise binary ops with 2-D broadcasting ---------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor div(const Tensor& a, const Tensor& b);

// Reduces `grad` (shaped like the broadcast output) back to `shape` of the
// operand by summing over broadcast dimensions. Core of broadcast backward.
Tensor reduce_to_shape(const Tensor& grad, std::int64_t rows,
                       std::int64_t cols);
// Move-aware variant: when no reduction is needed the storage passes through
// without a copy (used by backward closures that are done with `grad`).
Tensor reduce_to_shape(Tensor&& grad, std::int64_t rows, std::int64_t cols);

// --- scalar ops --------------------------------------------------------------
Tensor add_scalar(const Tensor& a, float s);
Tensor mul_scalar(const Tensor& a, float s);

// --- unary elementwise -------------------------------------------------------
Tensor neg(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor log(const Tensor& a);
Tensor sqrt(const Tensor& a);
Tensor relu(const Tensor& a);
Tensor square(const Tensor& a);

// --- linear algebra ----------------------------------------------------------
// All products run on the blocked, thread-parallel kernels in
// tensor/kernels.h. The _nt/_tn variants fuse the transpose into the GEMM
// loop nest, so no transposed copy of the operand is ever materialized.
Tensor matmul(const Tensor& a, const Tensor& b);
// a [N,K] x b [M,K] -> [N,M]: A·Bᵀ without materializing Bᵀ.
Tensor matmul_nt(const Tensor& a, const Tensor& b);
// a [K,N] x b [K,M] -> [N,M]: Aᵀ·B without materializing Aᵀ.
Tensor matmul_tn(const Tensor& a, const Tensor& b);
Tensor transpose(const Tensor& a);

// --- reductions to tensors ---------------------------------------------------
Tensor row_sum(const Tensor& a);  // [N,D] -> [N,1]
Tensor col_sum(const Tensor& a);  // [N,D] -> [1,D]
Tensor sum_all(const Tensor& a);  // [N,D] -> [1,1]
Tensor row_max(const Tensor& a);  // [N,D] -> [N,1]

// --- structural ops -----------------------------------------------------------
// Stacks tensors with equal cols vertically.
Tensor concat_rows(const std::vector<Tensor>& parts);
// Stacks tensors with equal rows horizontally.
Tensor concat_cols(const std::vector<Tensor>& parts);
// Rows [begin, end).
Tensor slice_rows(const Tensor& a, std::int64_t begin, std::int64_t end);
// Cols [begin, end).
Tensor slice_cols(const Tensor& a, std::int64_t begin, std::int64_t end);
// Rows selected by index (with repetition allowed).
Tensor take_rows(const Tensor& a, std::span<const int> indices);
inline Tensor take_rows(const Tensor& a, std::initializer_list<int> indices) {
  return take_rows(a, std::span<const int>(indices.begin(), indices.size()));
}
// out[r, 0] = a[r, idx[r]].
Tensor gather_cols(const Tensor& a, const std::vector<int>& idx);

// --- numerical helpers --------------------------------------------------------
// Row-wise softmax (numerically stable).
Tensor softmax_rows(const Tensor& a);
// Row-wise log-softmax (numerically stable).
Tensor log_softmax_rows(const Tensor& a);
// Row-wise L2 normalisation: each row divided by max(||row||, eps).
Tensor l2_normalize_rows(const Tensor& a, float eps = 1e-8f);
// Squared Euclidean distances: [N,D] x [K,D] -> [N,K].
Tensor pairwise_sq_dists(const Tensor& a, const Tensor& b);

// True when shapes match and all entries are within atol.
bool allclose(const Tensor& a, const Tensor& b, float atol = 1e-5f);

}  // namespace calibre::tensor
