// Unit tests for the tensor library: construction, elementwise ops with
// broadcasting, linear algebra, reductions, structural ops and error paths.
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/check.h"
#include "nn/networks.h"
#include "ssl/method.h"
#include "tensor/kernels.h"
#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace calibre::tensor {
namespace {

TEST(Tensor, DefaultIsEmpty) {
  Tensor t;
  EXPECT_EQ(t.rows(), 0);
  EXPECT_EQ(t.cols(), 0);
  EXPECT_EQ(t.size(), 0);
}

TEST(Tensor, ZerosOnesFullEye) {
  EXPECT_FLOAT_EQ(Tensor::zeros(2, 3).sum(), 0.0f);
  EXPECT_FLOAT_EQ(Tensor::ones(2, 3).sum(), 6.0f);
  EXPECT_FLOAT_EQ(Tensor::full(2, 2, 2.5f).sum(), 10.0f);
  const Tensor eye = Tensor::eye(3);
  EXPECT_FLOAT_EQ(eye.sum(), 3.0f);
  EXPECT_FLOAT_EQ(eye(1, 1), 1.0f);
  EXPECT_FLOAT_EQ(eye(0, 1), 0.0f);
}

TEST(Tensor, RowFactoryAndAccess) {
  const Tensor r = Tensor::row({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(r.rows(), 1);
  EXPECT_EQ(r.cols(), 3);
  EXPECT_FLOAT_EQ(r(0, 2), 3.0f);
}

TEST(Tensor, ConstructorValidatesDataSize) {
  EXPECT_THROW(Tensor(2, 3, std::vector<float>(5)), CheckError);
}

TEST(Tensor, OutOfBoundsAccessThrows) {
  const Tensor t(2, 2);
  EXPECT_THROW(t(2, 0), CheckError);
  EXPECT_THROW(t(0, -1), CheckError);
}

TEST(Tensor, InPlaceOps) {
  Tensor a = Tensor::full(2, 2, 1.0f);
  a.add_(Tensor::full(2, 2, 2.0f));
  EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
  a.axpy_(0.5f, Tensor::full(2, 2, 4.0f));
  EXPECT_FLOAT_EQ(a(1, 1), 5.0f);
  a.scale_(2.0f);
  EXPECT_FLOAT_EQ(a(0, 1), 10.0f);
  EXPECT_THROW(a.add_(Tensor(3, 2)), CheckError);
}

TEST(Tensor, Reductions) {
  const Tensor t(2, 3, {1, -2, 3, 4, 5, -6});
  EXPECT_FLOAT_EQ(t.sum(), 5.0f);
  EXPECT_FLOAT_EQ(t.mean(), 5.0f / 6.0f);
  EXPECT_FLOAT_EQ(t.min(), -6.0f);
  EXPECT_FLOAT_EQ(t.max(), 5.0f);
  EXPECT_FLOAT_EQ(t.squared_norm(), 1 + 4 + 9 + 16 + 25 + 36);
  EXPECT_EQ(t.argmax_row(0), 2);
  EXPECT_EQ(t.argmax_row(1), 1);
}

TEST(Tensor, RowCopy) {
  const Tensor t(2, 2, {1, 2, 3, 4});
  const Tensor r = t.row_copy(1);
  EXPECT_EQ(r.rows(), 1);
  EXPECT_FLOAT_EQ(r(0, 0), 3.0f);
}

// --- broadcasting -----------------------------------------------------------

TEST(TensorBroadcast, SameShape) {
  const Tensor a(2, 2, {1, 2, 3, 4});
  const Tensor b(2, 2, {10, 20, 30, 40});
  EXPECT_TRUE(allclose(add(a, b), Tensor(2, 2, {11, 22, 33, 44})));
  EXPECT_TRUE(allclose(sub(b, a), Tensor(2, 2, {9, 18, 27, 36})));
  EXPECT_TRUE(allclose(mul(a, a), Tensor(2, 2, {1, 4, 9, 16})));
  EXPECT_TRUE(allclose(div(b, a), Tensor(2, 2, {10, 10, 10, 10})));
}

TEST(TensorBroadcast, RowVector) {
  const Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor row = Tensor::row({10, 20, 30});
  EXPECT_TRUE(
      allclose(add(a, row), Tensor(2, 3, {11, 22, 33, 14, 25, 36})));
}

TEST(TensorBroadcast, ColVector) {
  const Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor col(2, 1, {10, 100});
  EXPECT_TRUE(
      allclose(mul(a, col), Tensor(2, 3, {10, 20, 30, 400, 500, 600})));
}

TEST(TensorBroadcast, OuterProductShapes) {
  const Tensor col(3, 1, {1, 2, 3});
  const Tensor row = Tensor::row({10, 20});
  const Tensor out = add(col, row);
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 2);
  EXPECT_FLOAT_EQ(out(2, 1), 23.0f);
}

TEST(TensorBroadcast, MismatchThrows) {
  EXPECT_THROW(add(Tensor(2, 3), Tensor(3, 3)), CheckError);
  EXPECT_THROW(mul(Tensor(2, 3), Tensor(2, 4)), CheckError);
}

TEST(TensorBroadcast, ReduceToShape) {
  const Tensor grad(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor to_row = reduce_to_shape(grad, 1, 3);
  EXPECT_TRUE(allclose(to_row, Tensor::row({5, 7, 9})));
  const Tensor to_col = reduce_to_shape(grad, 2, 1);
  EXPECT_TRUE(allclose(to_col, Tensor(2, 1, {6, 15})));
  const Tensor to_scalar = reduce_to_shape(grad, 1, 1);
  EXPECT_FLOAT_EQ(to_scalar(0, 0), 21.0f);
  EXPECT_THROW(reduce_to_shape(grad, 3, 3), CheckError);
}

// --- linear algebra ----------------------------------------------------------

TEST(TensorLinalg, Matmul) {
  const Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  const Tensor c = matmul(a, b);
  EXPECT_TRUE(allclose(c, Tensor(2, 2, {58, 64, 139, 154})));
  EXPECT_THROW(matmul(a, a), CheckError);
}

TEST(TensorLinalg, MatmulIdentity) {
  rng::Generator gen(3);
  const Tensor a = Tensor::randn(4, 4, gen);
  EXPECT_TRUE(allclose(matmul(a, Tensor::eye(4)), a));
  EXPECT_TRUE(allclose(matmul(Tensor::eye(4), a), a));
}

TEST(TensorLinalg, Transpose) {
  const Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor at = transpose(a);
  EXPECT_EQ(at.rows(), 3);
  EXPECT_EQ(at.cols(), 2);
  EXPECT_FLOAT_EQ(at(2, 1), 6.0f);
  EXPECT_TRUE(allclose(transpose(at), a));
}

// --- reductions to tensors ----------------------------------------------------

TEST(TensorReduce, RowColSumMax) {
  const Tensor a(2, 3, {1, 5, 3, 4, 2, 6});
  EXPECT_TRUE(allclose(row_sum(a), Tensor(2, 1, {9, 12})));
  EXPECT_TRUE(allclose(col_sum(a), Tensor::row({5, 7, 9})));
  EXPECT_FLOAT_EQ(sum_all(a)(0, 0), 21.0f);
  EXPECT_TRUE(allclose(row_max(a), Tensor(2, 1, {5, 6})));
}

// --- structural ----------------------------------------------------------------

TEST(TensorStructural, ConcatRowsCols) {
  const Tensor a(1, 2, {1, 2});
  const Tensor b(2, 2, {3, 4, 5, 6});
  const Tensor rows = concat_rows({a, b});
  EXPECT_EQ(rows.rows(), 3);
  EXPECT_FLOAT_EQ(rows(2, 1), 6.0f);
  const Tensor c(2, 1, {7, 8});
  const Tensor cols = concat_cols({b, c});
  EXPECT_EQ(cols.cols(), 3);
  EXPECT_FLOAT_EQ(cols(1, 2), 8.0f);
  EXPECT_THROW(concat_rows({a, Tensor(2, 3)}), CheckError);
  EXPECT_THROW(concat_cols({b, Tensor(3, 1)}), CheckError);
}

TEST(TensorStructural, SliceRowsCols) {
  const Tensor a(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_TRUE(allclose(slice_rows(a, 1, 3),
                       Tensor(2, 3, {4, 5, 6, 7, 8, 9})));
  EXPECT_TRUE(allclose(slice_cols(a, 0, 2),
                       Tensor(3, 2, {1, 2, 4, 5, 7, 8})));
  EXPECT_THROW(slice_rows(a, 2, 4), CheckError);
}

TEST(TensorStructural, TakeRowsWithRepetition) {
  const Tensor a(2, 2, {1, 2, 3, 4});
  const Tensor taken = take_rows(a, {1, 1, 0});
  EXPECT_EQ(taken.rows(), 3);
  EXPECT_FLOAT_EQ(taken(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(taken(2, 1), 2.0f);
  EXPECT_THROW(take_rows(a, {2}), CheckError);
}

TEST(TensorStructural, GatherCols) {
  const Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  const Tensor g = gather_cols(a, {2, 0});
  EXPECT_FLOAT_EQ(g(0, 0), 3.0f);
  EXPECT_FLOAT_EQ(g(1, 0), 4.0f);
  EXPECT_THROW(gather_cols(a, {3, 0}), CheckError);
  EXPECT_THROW(gather_cols(a, {0}), CheckError);
}

// --- numeric helpers -------------------------------------------------------------

TEST(TensorNumeric, SoftmaxRows) {
  const Tensor logits(1, 3, {0.0f, 0.0f, 0.0f});
  const Tensor sm = softmax_rows(logits);
  EXPECT_NEAR(sm(0, 0), 1.0f / 3.0f, 1e-6f);
  // Shift invariance.
  const Tensor shifted(1, 3, {100.0f, 100.0f, 100.0f});
  EXPECT_TRUE(allclose(softmax_rows(shifted), sm, 1e-6f));
  // Rows sum to one.
  rng::Generator gen(5);
  const Tensor r = Tensor::randn(4, 7, gen);
  const Tensor rsm = softmax_rows(r);
  for (std::int64_t i = 0; i < 4; ++i) {
    float total = 0.0f;
    for (std::int64_t j = 0; j < 7; ++j) total += rsm(i, j);
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(TensorNumeric, LogSoftmaxMatchesSoftmax) {
  rng::Generator gen(6);
  const Tensor r = Tensor::randn(3, 5, gen, 3.0f);
  const Tensor lsm = log_softmax_rows(r);
  const Tensor sm = softmax_rows(r);
  for (std::int64_t i = 0; i < r.size(); ++i) {
    EXPECT_NEAR(std::exp(lsm.data()[i]), sm.data()[i], 1e-5f);
  }
}

TEST(TensorNumeric, L2NormalizeRows) {
  const Tensor a(2, 2, {3, 4, 0, 0});
  const Tensor n = l2_normalize_rows(a);
  EXPECT_NEAR(n(0, 0), 0.6f, 1e-6f);
  EXPECT_NEAR(n(0, 1), 0.8f, 1e-6f);
  // Zero rows stay finite.
  EXPECT_FLOAT_EQ(n(1, 0), 0.0f);
}

TEST(TensorNumeric, PairwiseSqDists) {
  const Tensor a(2, 2, {0, 0, 1, 1});
  const Tensor b(1, 2, {3, 4});
  const Tensor d = pairwise_sq_dists(a, b);
  EXPECT_FLOAT_EQ(d(0, 0), 25.0f);
  EXPECT_FLOAT_EQ(d(1, 0), 13.0f);
  // Self-distance diagonal is zero.
  const Tensor self = pairwise_sq_dists(a, a);
  EXPECT_FLOAT_EQ(self(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(self(1, 1), 0.0f);
  EXPECT_FLOAT_EQ(self(0, 1), self(1, 0));
}

TEST(TensorNumeric, AllClose) {
  const Tensor a = Tensor::full(2, 2, 1.0f);
  Tensor b = a;
  EXPECT_TRUE(allclose(a, b));
  b(1, 1) += 1e-3f;
  EXPECT_FALSE(allclose(a, b, 1e-5f));
  EXPECT_TRUE(allclose(a, b, 1e-2f));
  EXPECT_FALSE(allclose(a, Tensor(2, 3)));
}

// --- kernel layer golden tests ----------------------------------------------
//
// The blocked/tiled kernels must agree with the seed's scalar reference
// kernels (kept verbatim in tensor/kernels.cc) on awkward shapes: degenerate
// 1xN / Nx1, shapes that are not multiples of the row tile or column block,
// and one shape large enough to cross the parallel_for flop threshold.
class KernelGolden : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KernelGolden, BlockedMatmulMatchesNaive) {
  const auto [n, k, m] = GetParam();
  rng::Generator gen(static_cast<std::uint64_t>(n * 31 + k * 7 + m));
  const Tensor a = Tensor::randn(n, k, gen);
  const Tensor b = Tensor::randn(k, m, gen);
  EXPECT_TRUE(allclose(matmul(a, b), kernels::matmul_naive(a, b), 1e-4f));
}

TEST_P(KernelGolden, MatmulNTFusesTranspose) {
  const auto [n, k, m] = GetParam();
  rng::Generator gen(static_cast<std::uint64_t>(n * 13 + k * 5 + m));
  const Tensor a = Tensor::randn(n, k, gen);
  const Tensor b = Tensor::randn(m, k, gen);  // matmul_nt contracts over cols
  EXPECT_TRUE(allclose(matmul_nt(a, b),
                       kernels::matmul_naive(a, transpose(b)), 1e-4f));
}

TEST_P(KernelGolden, MatmulTNFusesTranspose) {
  const auto [n, k, m] = GetParam();
  rng::Generator gen(static_cast<std::uint64_t>(n * 17 + k * 3 + m));
  const Tensor a = Tensor::randn(k, n, gen);  // matmul_tn contracts over rows
  const Tensor b = Tensor::randn(k, m, gen);
  EXPECT_TRUE(allclose(matmul_tn(a, b),
                       kernels::matmul_naive(transpose(a), b), 1e-4f));
}

TEST_P(KernelGolden, GemmPairwiseMatchesNaive) {
  const auto [n, k, m] = GetParam();
  rng::Generator gen(static_cast<std::uint64_t>(n * 23 + k * 11 + m));
  const Tensor a = Tensor::randn(n, k, gen);
  const Tensor b = Tensor::randn(m, k, gen);
  EXPECT_TRUE(allclose(pairwise_sq_dists(a, b),
                       kernels::pairwise_sq_dists_naive(a, b), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelGolden,
    ::testing::Values(
        std::make_tuple(1, 1, 1),       // smallest degenerate
        std::make_tuple(1, 33, 5),      // single output row
        std::make_tuple(7, 1, 9),       // K = 1
        std::make_tuple(9, 40, 1),      // single output column
        std::make_tuple(67, 129, 33),   // nothing divides the tile/block sizes
        std::make_tuple(4, 64, 128),    // exact row-tile and column-block fit
        std::make_tuple(130, 70, 131),  // one past the column block
        std::make_tuple(128, 128, 128)  // crosses parallel_flop_threshold()
        ));

TEST(KernelGolden, PairwiseIsNonNegativeOnDuplicateRows) {
  // The GEMM decomposition |a|^2 + |b|^2 - 2ab can go epsilon-negative under
  // float cancellation when a == b; the kernel must clamp to zero. The
  // diagonal is only zero up to cancellation residue, never negative.
  rng::Generator gen(41);
  const Tensor a = Tensor::randn(17, 29, gen, 5.0f);
  const Tensor d = pairwise_sq_dists(a, a);
  for (std::int64_t i = 0; i < d.rows(); ++i) {
    for (std::int64_t j = 0; j < d.cols(); ++j) {
      EXPECT_GE(d(i, j), 0.0f);
    }
    EXPECT_NEAR(d(i, i), 0.0f, 1e-3f);
  }
}

TEST(KernelGolden, MatmulNTShapeChecks) {
  EXPECT_THROW(matmul_nt(Tensor(2, 3), Tensor(4, 5)), CheckError);
  EXPECT_THROW(matmul_tn(Tensor(2, 3), Tensor(4, 3)), CheckError);
}

// --- kernel bitwise oracle ----------------------------------------------------
//
// Every GEMM output element is one k-ordered chain acc = acc + a(i,kk) *
// b(kk,j) from acc = 0, added once into the zeroed C, whichever path
// (register tile, 16-wide strip, scalar tail, packed panel, transposed
// product) or thread computes it. The chain contracts to fmaf in the AVX2
// and AVX-512 clones and stays a plain multiply-add in the baseline clone.
// The shapes straddle the panel-packing gate and are ragged in n % 8,
// m % 32 and m % 16; the narrow ones (m < 16) take the C^T path, with n
// ragged in n % 32 and n % 16. Each runs serial and over the kernel pool.

bool kernels_contract_to_fma() {
#if defined(__FMA__)
  return true;  // every clone, the default one included, has FMA
#elif defined(__SANITIZE_THREAD__)
  return false;  // TSan builds compile only the default clone
#else
  __builtin_cpu_init();
  return __builtin_cpu_supports("x86-64-v3") != 0;
#endif
}

struct BitwiseCase {
  std::int64_t n, k, m;
  std::vector<float> a;       // logical A [n, k]
  std::vector<float> b;       // logical B [k, m]
  std::vector<float> chain;   // each element's chain from 0 [n, m]
  std::vector<float> expect;  // C [n, m]: the chains added into zeroed C
};

// The i, kk, j loop order keeps each element's chain in k order while the
// inner j loop runs over independent chains.
__attribute__((target("fma"))) void chain_fma(const BitwiseCase& c,
                                              std::vector<float>& acc) {
  for (std::int64_t i = 0; i < c.n; ++i) {
    float* row = acc.data() + i * c.m;
    for (std::int64_t kk = 0; kk < c.k; ++kk) {
      const float av = c.a[i * c.k + kk];
      const float* brow = c.b.data() + kk * c.m;
      for (std::int64_t j = 0; j < c.m; ++j) {
        row[j] = std::fmaf(av, brow[j], row[j]);
      }
    }
  }
}

void chain_mul_add(const BitwiseCase& c, std::vector<float>& acc) {
  for (std::int64_t i = 0; i < c.n; ++i) {
    float* row = acc.data() + i * c.m;
    for (std::int64_t kk = 0; kk < c.k; ++kk) {
      const float av = c.a[i * c.k + kk];
      const float* brow = c.b.data() + kk * c.m;
      for (std::int64_t j = 0; j < c.m; ++j) row[j] = row[j] + av * brow[j];
    }
  }
}

BitwiseCase make_bitwise_case(std::int64_t n, std::int64_t k, std::int64_t m,
                              rng::Generator& gen) {
  BitwiseCase c{n, k, m, {}, {}, {}, {}};
  c.a.resize(static_cast<std::size_t>(c.n * c.k));
  c.b.resize(static_cast<std::size_t>(c.k * c.m));
  for (float& v : c.a) v = static_cast<float>(gen.normal());
  for (float& v : c.b) v = static_cast<float>(gen.normal());
  c.chain.assign(static_cast<std::size_t>(c.n * c.m), 0.0f);
  kernels_contract_to_fma() ? chain_fma(c, c.chain) : chain_mul_add(c, c.chain);
  c.expect.assign(c.chain.size(), 0.0f);
  for (std::size_t e = 0; e < c.chain.size(); ++e) c.expect[e] += c.chain[e];
  return c;
}

const std::vector<BitwiseCase>& bitwise_cases() {
  static const std::vector<BitwiseCase> cases = [] {
    const std::int64_t shapes[][3] = {
        {32, 1024, 1024}, {96, 1024, 1024}, {33, 1024, 1000}, {64, 2048, 130},
        {7, 48, 1024},    {32, 128, 128},   {256, 512, 512}};
    std::vector<BitwiseCase> out;
    rng::Generator gen(2412);
    for (const auto& s : shapes) {
      out.push_back(make_bitwise_case(s[0], s[1], s[2], gen));
    }
    for (const std::int64_t m : {1, 3, 10, 15}) {
      for (const std::int64_t n : {1, 7, 32, 33, 200, 2048}) {
        for (const std::int64_t k : {10, 48, 64, 256}) {
          out.push_back(make_bitwise_case(n, k, m, gen));
        }
      }
    }
    return out;
  }();
  return cases;
}

std::vector<float> transposed(const std::vector<float>& x, std::int64_t rows,
                              std::int64_t cols) {
  std::vector<float> out(x.size());
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) out[c * rows + r] = x[r * cols + c];
  }
  return out;
}

// Runs `kernel(case, a_storage, b_storage, c)` on zeroed C for every case,
// serial and over the kernel pool, and memcmps C against the oracle.
template <typename Kernel>
void expect_bitwise(bool transpose_a, bool transpose_b, const Kernel& kernel) {
  for (const BitwiseCase& c : bitwise_cases()) {
    const std::vector<float> a = transpose_a ? transposed(c.a, c.n, c.k) : c.a;
    const std::vector<float> b = transpose_b ? transposed(c.b, c.k, c.m) : c.b;
    for (const std::int64_t threshold : {std::int64_t{-1}, std::int64_t{1}}) {
      SCOPED_TRACE(::testing::Message()
                   << c.n << "x" << c.k << "x" << c.m
                   << (threshold < 0 ? " serial" : " pooled"));
      kernels::set_parallel_threshold_override(threshold);
      std::vector<float> out(c.expect.size(), 0.0f);
      kernel(c, a.data(), b.data(), out.data());
      kernels::set_parallel_threshold_override(0);
      EXPECT_EQ(std::memcmp(out.data(), c.expect.data(),
                            out.size() * sizeof(float)),
                0);
    }
  }
}

TEST(KernelBitwise, Gemm) {
  expect_bitwise(false, false, [](const BitwiseCase& c, const float* a,
                                  const float* b, float* out) {
    kernels::gemm(c.n, c.k, c.m, a, b, out);
  });
}

TEST(KernelBitwise, GemmNt) {
  expect_bitwise(false, true, [](const BitwiseCase& c, const float* a,
                                 const float* b, float* out) {
    kernels::gemm_nt(c.n, c.k, c.m, a, b, out);
  });
}

TEST(KernelBitwise, GemmTn) {
  expect_bitwise(true, false, [](const BitwiseCase& c, const float* a,
                                 const float* b, float* out) {
    kernels::gemm_tn(c.n, c.k, c.m, a, b, out);
  });
}

// A narrow output (m < 16) adds each element's chain from 0 into C, as the
// full register tiles do; it does not run the chain from C's value
// (tensor/kernels.h). gemm and gemm_tn accept a partial-result C, so pin
// that rule on one with non-zero, non-integral entries.
template <typename Kernel>
void expect_narrow_accumulates(bool transpose_a, const Kernel& kernel) {
  rng::Generator gen(2413);
  for (const std::int64_t m : {3, 10}) {
    const BitwiseCase c = make_bitwise_case(45, 64, m, gen);
    const std::vector<float> a = transpose_a ? transposed(c.a, c.n, c.k) : c.a;
    std::vector<float> partial(c.chain.size());
    for (float& v : partial) v = static_cast<float>(gen.normal());
    std::vector<float> want = partial;
    for (std::size_t e = 0; e < want.size(); ++e) want[e] += c.chain[e];
    for (const std::int64_t threshold : {std::int64_t{-1}, std::int64_t{1}}) {
      SCOPED_TRACE(::testing::Message()
                   << "m " << m << (threshold < 0 ? " serial" : " pooled"));
      kernels::set_parallel_threshold_override(threshold);
      std::vector<float> out = partial;
      kernel(c, a.data(), c.b.data(), out.data());
      kernels::set_parallel_threshold_override(0);
      EXPECT_EQ(std::memcmp(out.data(), want.data(),
                            out.size() * sizeof(float)),
                0);
    }
  }
}

TEST(KernelBitwise, GemmNarrowAddsChainIntoPartialC) {
  expect_narrow_accumulates(false, [](const BitwiseCase& c, const float* a,
                                      const float* b, float* out) {
    kernels::gemm(c.n, c.k, c.m, a, b, out);
  });
}

TEST(KernelBitwise, GemmTnNarrowAddsChainIntoPartialC) {
  expect_narrow_accumulates(true, [](const BitwiseCase& c, const float* a,
                                     const float* b, float* out) {
    kernels::gemm_tn(c.n, c.k, c.m, a, b, out);
  });
}

// --- encoder row invariance -------------------------------------------------
//
// The personalization table (core::PflSsl, DESIGN.md §7.3) encodes each row
// in whichever 64-row slice it lands in and hands the features to every
// client that reads the row. That is exact only because a row's features do
// not depend on the rows encoded with it: every GEMM element is the same
// k-ordered chain whatever the row count (KernelBitwise.*), and LayerNorm,
// bias and ReLU act row by row. This pins the property at the encoder level:
// each row alone and in 32-, 64- and 512-row batches, serial and over the
// kernel pool, memcmp-equal to the serial 512-row encode.
void expect_row_invariant(nn::EncoderConfig encoder) {
  for (const bool layer_norm : {true, false}) {
    encoder.layer_norm = layer_norm;
    const auto method = ssl::make_method(ssl::Kind::kSimClr, encoder,
                                         ssl::SslConfig{}, /*seed=*/17);
    rng::Generator gen(18);
    const Tensor x = Tensor::randn(512, encoder.input_dim, gen);
    kernels::set_parallel_threshold_override(-1);
    const Tensor want = method->encode(x);
    ASSERT_EQ(want.rows(), 512);
    ASSERT_EQ(want.cols(), encoder.feature_dim);
    for (const std::int64_t threshold : {std::int64_t{-1}, std::int64_t{1}}) {
      kernels::set_parallel_threshold_override(threshold);
      for (const std::int64_t batch : {1, 32, 64, 512}) {
        SCOPED_TRACE(::testing::Message()
                     << "layer_norm " << layer_norm << " batch " << batch
                     << (threshold < 0 ? " serial" : " pooled"));
        int differing = 0;
        for (std::int64_t begin = 0; begin < x.rows(); begin += batch) {
          const Tensor got =
              method->encode(slice_rows(x, begin, begin + batch));
          differing +=
              std::memcmp(got.data(), want.data() + begin * want.cols(),
                          static_cast<std::size_t>(got.size()) *
                              sizeof(float)) != 0;
        }
        EXPECT_EQ(differing, 0);
      }
    }
    kernels::set_parallel_threshold_override(0);
  }
}

TEST(EncoderRowInvariance, DefaultEncoder) {
  expect_row_invariant(nn::EncoderConfig{});
}

TEST(EncoderRowInvariance, WideEncoder) {
  nn::EncoderConfig wide;
  wide.hidden_dims = {1024, 1024};
  wide.feature_dim = 256;
  expect_row_invariant(wide);
}

// Parameterized shape sweep: (A @ B)^T == B^T @ A^T for random shapes.
class MatmulTransposeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulTransposeProperty, TransposeOfProduct) {
  const auto [n, k, m] = GetParam();
  rng::Generator gen(static_cast<std::uint64_t>(n * 10000 + k * 100 + m));
  const Tensor a = Tensor::randn(n, k, gen);
  const Tensor b = Tensor::randn(k, m, gen);
  EXPECT_TRUE(allclose(transpose(matmul(a, b)),
                       matmul(transpose(b), transpose(a)), 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulTransposeProperty,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(5, 1, 7), std::make_tuple(8, 8, 8),
                      std::make_tuple(1, 16, 3), std::make_tuple(13, 7, 2)));

// Parameterized: reduce_to_shape(broadcast(x)) equals x scaled by fan-out.
class BroadcastRoundTrip : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BroadcastRoundTrip, SumOverBroadcastAxes) {
  const auto [rows, cols] = GetParam();
  rng::Generator gen(11);
  const Tensor small = Tensor::randn(1, cols, gen);
  const Tensor big = Tensor::zeros(rows, cols);
  const Tensor broadcasted = add(big, small);
  const Tensor reduced = reduce_to_shape(broadcasted, 1, cols);
  EXPECT_TRUE(allclose(reduced, mul_scalar(small, static_cast<float>(rows)),
                       1e-4f));
}

INSTANTIATE_TEST_SUITE_P(Shapes, BroadcastRoundTrip,
                         ::testing::Values(std::make_pair(1, 4),
                                           std::make_pair(3, 4),
                                           std::make_pair(16, 2),
                                           std::make_pair(7, 9)));

}  // namespace
}  // namespace calibre::tensor
