#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/check.h"
#include "tensor/kernels.h"

namespace calibre::tensor {

// The pool allocator default-initialises elements (no memset), so the
// uninit path is a pure buffer acquisition; the public shape constructor
// fills explicitly to keep its zero-init contract.
Tensor::Tensor(std::int64_t rows, std::int64_t cols, UninitTag)
    : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows * cols)) {
  CALIBRE_CHECK(rows >= 0 && cols >= 0);
}

Tensor::Tensor(std::int64_t rows, std::int64_t cols)
    : Tensor(rows, cols, UninitTag{}) {
  fill(0.0f);
}

Tensor::Tensor(std::int64_t rows, std::int64_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
  CALIBRE_CHECK_MSG(
      static_cast<std::int64_t>(data_.size()) == rows * cols,
      "data size " << data_.size() << " != " << rows << "x" << cols);
}

Tensor Tensor::uninit(std::int64_t rows, std::int64_t cols) {
  return Tensor(rows, cols, UninitTag{});
}

Tensor Tensor::zeros(std::int64_t rows, std::int64_t cols) {
  return Tensor(rows, cols);
}

Tensor Tensor::ones(std::int64_t rows, std::int64_t cols) {
  return full(rows, cols, 1.0f);
}

Tensor Tensor::full(std::int64_t rows, std::int64_t cols, float value) {
  Tensor t = uninit(rows, cols);
  t.fill(value);
  return t;
}

Tensor Tensor::eye(std::int64_t n) {
  Tensor t(n, n);
  for (std::int64_t i = 0; i < n; ++i) t(i, i) = 1.0f;
  return t;
}

Tensor Tensor::row(std::initializer_list<float> values) {
  return Tensor(1, static_cast<std::int64_t>(values.size()),
                std::vector<float>(values));
}

Tensor Tensor::row(const std::vector<float>& values) {
  return Tensor(1, static_cast<std::int64_t>(values.size()), values);
}

Tensor Tensor::randn(std::int64_t rows, std::int64_t cols,
                     rng::Generator& gen, float stddev) {
  Tensor t = uninit(rows, cols);
  for (auto& value : t.storage()) {
    value = static_cast<float>(gen.normal() * stddev);
  }
  return t;
}

Tensor Tensor::rand_uniform(std::int64_t rows, std::int64_t cols,
                            rng::Generator& gen, float lo, float hi) {
  Tensor t = uninit(rows, cols);
  for (auto& value : t.storage()) {
    value = static_cast<float>(gen.uniform(lo, hi));
  }
  return t;
}

float& Tensor::operator()(std::int64_t r, std::int64_t c) {
  CALIBRE_CHECK_MSG(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                    "index (" << r << "," << c << ") in " << shape_string());
  return data_[static_cast<std::size_t>(r * cols_ + c)];
}

float Tensor::operator()(std::int64_t r, std::int64_t c) const {
  CALIBRE_CHECK_MSG(r >= 0 && r < rows_ && c >= 0 && c < cols_,
                    "index (" << r << "," << c << ") in " << shape_string());
  return data_[static_cast<std::size_t>(r * cols_ + c)];
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::add_(const Tensor& other) {
  CALIBRE_CHECK_MSG(same_shape(other), shape_string() << " += "
                                                      << other.shape_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::axpy_(float alpha, const Tensor& other) {
  CALIBRE_CHECK(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += alpha * other.data_[i];
  }
}

void Tensor::scale_(float alpha) {
  for (auto& value : data_) value *= alpha;
}

void Tensor::mul_(const Tensor& other) {
  CALIBRE_CHECK_MSG(same_shape(other), shape_string() << " *= "
                                                      << other.shape_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
}

void Tensor::div_(const Tensor& other) {
  CALIBRE_CHECK_MSG(same_shape(other), shape_string() << " /= "
                                                      << other.shape_string());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] /= other.data_[i];
}

float Tensor::sum() const {
  double total = 0.0;
  for (float value : data_) total += value;
  return static_cast<float>(total);
}

float Tensor::mean() const {
  CALIBRE_CHECK(size() > 0);
  return sum() / static_cast<float>(size());
}

float Tensor::min() const {
  CALIBRE_CHECK(size() > 0);
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  CALIBRE_CHECK(size() > 0);
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::squared_norm() const {
  double total = 0.0;
  for (float value : data_) total += static_cast<double>(value) * value;
  return static_cast<float>(total);
}

std::int64_t Tensor::argmax_row(std::int64_t r) const {
  CALIBRE_CHECK(r >= 0 && r < rows_ && cols_ > 0);
  const float* begin = data() + r * cols_;
  return std::max_element(begin, begin + cols_) - begin;
}

Tensor Tensor::row_copy(std::int64_t r) const {
  CALIBRE_CHECK(r >= 0 && r < rows_);
  Tensor out = uninit(1, cols_);
  std::copy(data() + r * cols_, data() + (r + 1) * cols_, out.data());
  return out;
}

std::string Tensor::shape_string() const {
  std::ostringstream os;
  os << "[" << rows_ << "," << cols_ << "]";
  return os.str();
}

namespace {

// Computes the broadcast output shape of a binary op, checking compatibility.
void broadcast_shape(const Tensor& a, const Tensor& b, std::int64_t& rows,
                     std::int64_t& cols) {
  auto merge = [](std::int64_t x, std::int64_t y, const char* which) {
    if (x == y) return x;
    if (x == 1) return y;
    if (y == 1) return x;
    CALIBRE_CHECK_MSG(false, "broadcast mismatch in " << which << ": " << x
                                                      << " vs " << y);
    return std::int64_t{0};
  };
  rows = merge(a.rows(), b.rows(), "rows");
  cols = merge(a.cols(), b.cols(), "cols");
}

template <typename Fn>
Tensor broadcast_binary(const Tensor& a, const Tensor& b, Fn fn) {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  broadcast_shape(a, b, rows, cols);
  Tensor out = Tensor::uninit(rows, cols);
  const float* ad = a.data();
  const float* bd = b.data();
  float* od = out.data();
  // Same-shape fast path: one branch-free pass over raw contiguous storage.
  if (a.same_shape(b)) {
    const std::int64_t size = out.size();
    for (std::int64_t i = 0; i < size; ++i) od[i] = fn(ad[i], bd[i]);
    return out;
  }
  // The two layer-norm / row-statistic patterns get branch-free contiguous
  // inner loops: [N,D] op [N,1] broadcasts one scalar per row, and
  // [N,D] op [1,D] reuses one row-vector for every row.
  if (a.rows() == rows && a.cols() == cols && b.rows() == rows &&
      b.cols() == 1) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* arow = ad + r * cols;
      const float bv = bd[r];
      float* orow = od + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) orow[c] = fn(arow[c], bv);
    }
    return out;
  }
  if (a.rows() == rows && a.cols() == cols && b.rows() == 1 &&
      b.cols() == cols) {
    for (std::int64_t r = 0; r < rows; ++r) {
      const float* arow = ad + r * cols;
      float* orow = od + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) orow[c] = fn(arow[c], bd[c]);
    }
    return out;
  }
  // General broadcast: express each operand as (row stride, col stride) over
  // its raw storage — a broadcast dimension has stride 0 — so the inner loop
  // indexes pointers directly instead of the bounds-checked operator().
  const std::int64_t a_rs = a.rows() == 1 ? 0 : a.cols();
  const std::int64_t a_cs = a.cols() == 1 ? 0 : 1;
  const std::int64_t b_rs = b.rows() == 1 ? 0 : b.cols();
  const std::int64_t b_cs = b.cols() == 1 ? 0 : 1;
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* arow = ad + r * a_rs;
    const float* brow = bd + r * b_rs;
    float* orow = od + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      orow[c] = fn(arow[c * a_cs], brow[c * b_cs]);
    }
  }
  return out;
}

template <typename Fn>
Tensor unary(const Tensor& a, Fn fn) {
  Tensor out = Tensor::uninit(a.rows(), a.cols());
  const float* src = a.data();
  float* dst = out.data();
  for (std::int64_t i = 0; i < a.size(); ++i) dst[i] = fn(src[i]);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return broadcast_binary(a, b, [](float x, float y) { return x + y; });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  return broadcast_binary(a, b, [](float x, float y) { return x - y; });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  return broadcast_binary(a, b, [](float x, float y) { return x * y; });
}

Tensor div(const Tensor& a, const Tensor& b) {
  return broadcast_binary(a, b, [](float x, float y) { return x / y; });
}

Tensor reduce_to_shape(const Tensor& grad, std::int64_t rows,
                       std::int64_t cols) {
  CALIBRE_CHECK_MSG(
      (rows == grad.rows() || rows == 1) && (cols == grad.cols() || cols == 1),
      "cannot reduce " << grad.shape_string() << " to [" << rows << "," << cols
                       << "]");
  if (rows == grad.rows() && cols == grad.cols()) return grad;
  Tensor out = Tensor::uninit(rows, cols);
  const float* gd = grad.data();
  float* od = out.data();
  // The target row/col is either identity or 0; the three reduced cases each
  // get a contiguous raw-storage loop. The row-reduction seeds the output
  // with the first input row so the (uninitialised) output is fully written.
  if (rows == 1 && cols == 1) {
    od[0] = grad.sum();
  } else if (grad.rows() == 0) {  // empty input: reduction sums to zero
    out.fill(0.0f);
  } else if (rows == 1) {  // sum rows down into a [1,C] vector
    std::copy(gd, gd + grad.cols(), od);
    for (std::int64_t r = 1; r < grad.rows(); ++r) {
      const float* grow = gd + r * grad.cols();
      for (std::int64_t c = 0; c < grad.cols(); ++c) od[c] += grow[c];
    }
  } else {  // cols == 1: sum each row into a [R,1] vector
    for (std::int64_t r = 0; r < grad.rows(); ++r) {
      const float* grow = gd + r * grad.cols();
      float total = 0.0f;
      for (std::int64_t c = 0; c < grad.cols(); ++c) total += grow[c];
      od[r] = total;
    }
  }
  return out;
}

Tensor reduce_to_shape(Tensor&& grad, std::int64_t rows, std::int64_t cols) {
  if (rows == grad.rows() && cols == grad.cols()) return std::move(grad);
  return reduce_to_shape(static_cast<const Tensor&>(grad), rows, cols);
}

Tensor add_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x + s; });
}

Tensor mul_scalar(const Tensor& a, float s) {
  return unary(a, [s](float x) { return x * s; });
}

Tensor neg(const Tensor& a) {
  return unary(a, [](float x) { return -x; });
}

Tensor exp(const Tensor& a) {
  return unary(a, [](float x) { return std::exp(x); });
}

Tensor log(const Tensor& a) {
  return unary(a, [](float x) { return std::log(x); });
}

Tensor sqrt(const Tensor& a) {
  return unary(a, [](float x) { return std::sqrt(x); });
}

Tensor relu(const Tensor& a) {
  return unary(a, [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor square(const Tensor& a) {
  return unary(a, [](float x) { return x * x; });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  CALIBRE_CHECK_EQ(a.cols(), b.rows(),
                   "matmul " << a.shape_string() << " x " << b.shape_string());
  Tensor out(a.rows(), b.cols());
  kernels::gemm(a.rows(), a.cols(), b.cols(), a.data(), b.data(), out.data());
  return out;
}

Tensor transpose(const Tensor& a) {
  Tensor out = Tensor::uninit(a.cols(), a.rows());
  const std::int64_t rows = a.rows();
  const std::int64_t cols = a.cols();
  const float* ad = a.data();
  float* od = out.data();
  // 32x32 tiles: both the read rows and the written columns of a tile stay
  // in L1, instead of striding through the whole output per input row.
  constexpr std::int64_t kTile = 32;
  for (std::int64_t r0 = 0; r0 < rows; r0 += kTile) {
    const std::int64_t r1 = std::min(r0 + kTile, rows);
    for (std::int64_t c0 = 0; c0 < cols; c0 += kTile) {
      const std::int64_t c1 = std::min(c0 + kTile, cols);
      for (std::int64_t r = r0; r < r1; ++r) {
        const float* arow = ad + r * cols;
        for (std::int64_t c = c0; c < c1; ++c) {
          od[c * rows + r] = arow[c];
        }
      }
    }
  }
  return out;
}

Tensor row_sum(const Tensor& a) {
  Tensor out = Tensor::uninit(a.rows(), 1);
  const float* ad = a.data();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float* row = ad + r * a.cols();
    double total = 0.0;
    for (std::int64_t c = 0; c < a.cols(); ++c) total += row[c];
    out.data()[r] = static_cast<float>(total);
  }
  return out;
}

Tensor col_sum(const Tensor& a) {
  if (a.rows() == 0) return Tensor(1, a.cols());
  Tensor out = Tensor::uninit(1, a.cols());
  float* od = out.data();
  const float* ad = a.data();
  std::copy(ad, ad + a.cols(), od);
  for (std::int64_t r = 1; r < a.rows(); ++r) {
    const float* row = ad + r * a.cols();
    for (std::int64_t c = 0; c < a.cols(); ++c) od[c] += row[c];
  }
  return out;
}

Tensor sum_all(const Tensor& a) {
  Tensor out = Tensor::uninit(1, 1);
  out(0, 0) = a.sum();
  return out;
}

Tensor row_max(const Tensor& a) {
  CALIBRE_CHECK(a.cols() > 0);
  Tensor out = Tensor::uninit(a.rows(), 1);
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    float best = a(r, 0);
    for (std::int64_t c = 1; c < a.cols(); ++c) best = std::max(best, a(r, c));
    out(r, 0) = best;
  }
  return out;
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  CALIBRE_CHECK(!parts.empty());
  const std::int64_t cols = parts.front().cols();
  std::int64_t rows = 0;
  for (const Tensor& part : parts) {
    CALIBRE_CHECK_EQ(part.cols(), cols, "concat_rows col mismatch");
    rows += part.rows();
  }
  Tensor out = Tensor::uninit(rows, cols);
  std::int64_t offset = 0;
  for (const Tensor& part : parts) {
    std::copy(part.data(), part.data() + part.size(),
              out.data() + offset * cols);
    offset += part.rows();
  }
  return out;
}

Tensor concat_cols(const std::vector<Tensor>& parts) {
  CALIBRE_CHECK(!parts.empty());
  const std::int64_t rows = parts.front().rows();
  std::int64_t cols = 0;
  for (const Tensor& part : parts) {
    CALIBRE_CHECK_EQ(part.rows(), rows, "concat_cols row mismatch");
    cols += part.cols();
  }
  Tensor out = Tensor::uninit(rows, cols);
  std::int64_t offset = 0;
  for (const Tensor& part : parts) {
    for (std::int64_t r = 0; r < rows; ++r) {
      std::copy(part.data() + r * part.cols(),
                part.data() + (r + 1) * part.cols(),
                out.data() + r * cols + offset);
    }
    offset += part.cols();
  }
  return out;
}

Tensor slice_rows(const Tensor& a, std::int64_t begin, std::int64_t end) {
  CALIBRE_CHECK_MSG(begin >= 0 && begin <= end && end <= a.rows(),
                    "slice_rows [" << begin << "," << end << ") of "
                                   << a.shape_string());
  Tensor out = Tensor::uninit(end - begin, a.cols());
  std::copy(a.data() + begin * a.cols(), a.data() + end * a.cols(),
            out.data());
  return out;
}

Tensor slice_cols(const Tensor& a, std::int64_t begin, std::int64_t end) {
  CALIBRE_CHECK_MSG(begin >= 0 && begin <= end && end <= a.cols(),
                    "slice_cols [" << begin << "," << end << ") of "
                                   << a.shape_string());
  Tensor out = Tensor::uninit(a.rows(), end - begin);
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    std::copy(a.data() + r * a.cols() + begin, a.data() + r * a.cols() + end,
              out.data() + r * out.cols());
  }
  return out;
}

Tensor take_rows(const Tensor& a, std::span<const int> indices) {
  Tensor out = Tensor::uninit(static_cast<std::int64_t>(indices.size()), a.cols());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::int64_t r = indices[i];
    CALIBRE_CHECK_MSG(r >= 0 && r < a.rows(), "take_rows index " << r);
    std::copy(a.data() + r * a.cols(), a.data() + (r + 1) * a.cols(),
              out.data() + static_cast<std::int64_t>(i) * a.cols());
  }
  return out;
}

Tensor gather_cols(const Tensor& a, const std::vector<int>& idx) {
  CALIBRE_CHECK_MSG(static_cast<std::int64_t>(idx.size()) == a.rows(),
                    "gather_cols needs one index per row");
  Tensor out = Tensor::uninit(a.rows(), 1);
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const int c = idx[static_cast<std::size_t>(r)];
    CALIBRE_CHECK_MSG(c >= 0 && c < a.cols(), "gather_cols index " << c);
    out(r, 0) = a(r, c);
  }
  return out;
}

Tensor softmax_rows(const Tensor& a) {
  Tensor out = Tensor::uninit(a.rows(), a.cols());
  const std::int64_t cols = a.cols();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float* row = a.data() + r * cols;
    float* orow = out.data() + r * cols;
    float best = -std::numeric_limits<float>::infinity();
    for (std::int64_t c = 0; c < cols; ++c) best = std::max(best, row[c]);
    double total = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float e = std::exp(row[c] - best);
      orow[c] = e;
      total += e;
    }
    const float inv = static_cast<float>(1.0 / total);
    for (std::int64_t c = 0; c < cols; ++c) orow[c] *= inv;
  }
  return out;
}

Tensor log_softmax_rows(const Tensor& a) {
  Tensor out = Tensor::uninit(a.rows(), a.cols());
  const std::int64_t cols = a.cols();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float* row = a.data() + r * cols;
    float* orow = out.data() + r * cols;
    float best = -std::numeric_limits<float>::infinity();
    for (std::int64_t c = 0; c < cols; ++c) best = std::max(best, row[c]);
    double total = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) total += std::exp(row[c] - best);
    const float lse = best + static_cast<float>(std::log(total));
    for (std::int64_t c = 0; c < cols; ++c) orow[c] = row[c] - lse;
  }
  return out;
}

Tensor l2_normalize_rows(const Tensor& a, float eps) {
  Tensor out = Tensor::uninit(a.rows(), a.cols());
  const std::int64_t cols = a.cols();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const float* row = a.data() + r * cols;
    float* orow = out.data() + r * cols;
    double sq = 0.0;
    for (std::int64_t c = 0; c < cols; ++c) {
      sq += static_cast<double>(row[c]) * row[c];
    }
    const float inv =
        1.0f / std::max(static_cast<float>(std::sqrt(sq)), eps);
    for (std::int64_t c = 0; c < cols; ++c) orow[c] = row[c] * inv;
  }
  return out;
}

// pairwise_sq_dists lives in tensor/kernels.cc (GEMM-based decomposition).

bool allclose(const Tensor& a, const Tensor& b, float atol) {
  if (!a.same_shape(b)) return false;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) > atol) return false;
  }
  return true;
}

}  // namespace calibre::tensor
