#include "tensor/kernels.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "common/thread_pool.h"

// The vector type below is TU-internal and every use is inlined into the
// target_clones dispatch functions, so the ABI warning about passing
// 64-byte vectors without AVX-512 enabled is noise here.
#pragma GCC diagnostic ignored "-Wpsabi"

namespace calibre::tensor::kernels {
namespace {

// 16-float SIMD lane group. GCC legalizes it per target: one ZMM on
// AVX-512, two YMM on AVX2, four XMM on baseline SSE2 — so one microkernel
// body serves every clone. aligned(4) permits unaligned loads/stores;
// may_alias keeps float* <-> vf* casts defined.
typedef float vf __attribute__((vector_size(64), aligned(4), may_alias));

constexpr std::int64_t kVecWidth = 16;  // floats per vf

// Output register tile: 8 rows x 32 columns = 16 vf accumulators. On
// AVX-512 that is 16 ZMM registers of C held across the whole K sweep, the
// sweet spot measured on this microkernel (4x over streaming C through
// memory every k step). kColTile is two vf lanes so the B strip load is
// amortised over 8 rows.
constexpr std::int64_t kRowTile = 8;
constexpr std::int64_t kColTile = 32;

// parallel_for grain: up to 32 rows run as one chunk, more split into at
// most ceil(n / 32) chunks. Chunks need not be tile multiples (100 rows
// split 4 x 25): a row's outputs are the same chains in any tile shape.
constexpr std::int64_t kRowGrain = 32;

// B (k*m floats) from which on the kernels pack panels: gemm copies each
// full 32-column panel of B into contiguous scratch, gemm_nt transposes A
// instead of B when the chunk has fewer rows than B. 2^19 floats (2 MiB):
// the wide encoder's 1024x1024 layers are above it. At 2^18 (1024x256,
// 512x512) B's strided strip still stays cached and packing gemm's B cost
// up to a fifth of its speed; the 128-wide layers are far below.
constexpr std::int64_t kPackMinFloats = std::int64_t{1} << 19;

common::ThreadPool& kernel_pool() {
  static common::ThreadPool pool(common::ThreadPool::default_parallelism());
  return pool;
}

// Partitions [0, n) output rows across the kernel pool when the kernel is
// big enough to amortise dispatch; runs inline otherwise.
template <typename Fn>
void for_each_row_chunk(std::int64_t n, std::int64_t flops, const Fn& fn) {
  const std::int64_t threshold = parallel_flop_threshold();
  if (threshold <= 0 || flops < threshold) {
    fn(0, n);
    return;
  }
  kernel_pool().parallel_for(0, n, kRowGrain,
                             [&fn](std::int64_t begin, std::int64_t end) {
                               fn(begin, end);
                             });
}

// Per-thread panel scratch, 64-byte aligned, grown to the largest request
// and reused by every later call on the thread.
float* scratch(std::int64_t floats) {
  thread_local std::vector<float> buffer;
  const auto need = static_cast<std::size_t>(floats + kVecWidth);
  if (buffer.size() < need) buffer.resize(need);
  const auto address = reinterpret_cast<std::uintptr_t>(buffer.data());
  return buffer.data() + ((64 - address % 64) % 64) / sizeof(float);
}

inline vf splat(float x) { return vf{} + x; }
inline const vf* vload(const float* p) { return reinterpret_cast<const vf*>(p); }
inline vf* vstore(float* p) { return reinterpret_cast<vf*>(p); }

// The plain product and the fused-transpose product A^T*B share one loop
// nest; they differ only in how the A scalar for (row i, step kk) is
// addressed: stride-1 along a row, or stride-n down a column.
struct NoTransA {
  std::int64_t k;  // row length of A
  std::int64_t index(std::int64_t i, std::int64_t kk) const {
    return i * k + kk;
  }
};
struct TransA {
  std::int64_t n;  // row length of A (A is [k, n], read as columns)
  std::int64_t index(std::int64_t i, std::int64_t kk) const {
    return kk * n + i;
  }
};

// One register tile: RT output rows x (JV * 16) output columns, sweeping
// the full K extent with the C tile held in vf accumulators and written
// back once. `bs` points at the tile's first B column (row stride ldb).
template <int RT, int JV, typename AIndex>
inline void microtile(std::int64_t i, std::int64_t k, const float* a,
                      AIndex ai, const float* bs, std::int64_t ldb, float* c,
                      std::int64_t ldc, std::int64_t j0) {
  vf acc[RT][JV] = {};
  for (std::int64_t kk = 0; kk < k; ++kk) {
    vf bv[JV];
    for (int v = 0; v < JV; ++v) {
      bv[v] = *vload(bs + kk * ldb + kVecWidth * v);
    }
    for (int r = 0; r < RT; ++r) {
      const vf av = splat(a[ai.index(i + r, kk)]);
      for (int v = 0; v < JV; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < RT; ++r) {
    for (int v = 0; v < JV; ++v) {
      *vstore(c + (i + r) * ldc + j0 + kVecWidth * v) += acc[r][v];
    }
  }
}

// Macro kernel: rows [i0, i1) x columns [cj, cj + jw) of C, reading B
// columns [bj, bj + jw) with row stride ldb. Full 32-wide tiles, then a
// 16-wide strip, then a scalar streaming tail for the last jw % 16 columns.
template <typename AIndex>
inline void gemm_block(std::int64_t i0, std::int64_t i1, std::int64_t k,
                       const float* a, AIndex ai, const float* b,
                       std::int64_t ldb, std::int64_t bj, float* c,
                       std::int64_t ldc, std::int64_t cj, std::int64_t jw) {
  std::int64_t j = 0;
  for (; j + kColTile <= jw; j += kColTile) {
    const float* bs = b + bj + j;
    std::int64_t i = i0;
    for (; i + kRowTile <= i1; i += kRowTile) {
      microtile<kRowTile, 2>(i, k, a, ai, bs, ldb, c, ldc, cj + j);
    }
    for (; i < i1; ++i) microtile<1, 2>(i, k, a, ai, bs, ldb, c, ldc, cj + j);
  }
  for (; j + kVecWidth <= jw; j += kVecWidth) {
    const float* bs = b + bj + j;
    std::int64_t i = i0;
    for (; i + kRowTile <= i1; i += kRowTile) {
      microtile<kRowTile, 1>(i, k, a, ai, bs, ldb, c, ldc, cj + j);
    }
    for (; i < i1; ++i) microtile<1, 1>(i, k, a, ai, bs, ldb, c, ldc, cj + j);
  }
  if (j < jw) {
    for (std::int64_t i = i0; i < i1; ++i) {
      float* crow = c + i * ldc + cj;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = a[ai.index(i, kk)];
        const float* brow = b + kk * ldb + bj;
        for (std::int64_t jj = j; jj < jw; ++jj) crow[jj] += av * brow[jj];
      }
    }
  }
}

// C^T path for rows [i0, i1) of C[., m]: computes C^T = B^T * A^T and adds
// it into C, 32 rows of A at a time. The m columns of C become microtile rows
// (B's element (kk, j) read at bi.index(j, kk)); each stripe of up to 32
// rows of A becomes the microtile's vector columns, as a k x pw panel of A^T
// (pw = 16 or 32, zero-padded past the stripe). The stripe's C^T goes to
// m x pw scratch and is then added into C. A transposed A ([k, n], TransA)
// already holds A^T's rows in place, so a full stripe reads it at stride n
// without packing. Float multiply and fma commute bitwise, so every element
// is the same k-ordered chain from 0 as in the plain tiles.
template <typename AIndex, typename BIndex>
inline void gemm_ct(std::int64_t i0, std::int64_t i1, std::int64_t k,
                    std::int64_t m, const float* a, AIndex ai, const float* b,
                    BIndex bi, float* c) {
  float* packed = scratch((k + m) * kColTile);
  float* ct = packed + k * kColTile;
  for (std::int64_t s0 = i0; s0 < i1; s0 += kColTile) {
    const std::int64_t sw = std::min(kColTile, i1 - s0);
    const std::int64_t pw = sw <= kVecWidth ? kVecWidth : kColTile;
    const float* at = packed;
    std::int64_t ldat = pw;
    if constexpr (std::is_same_v<AIndex, TransA>) {
      if (sw == pw) {
        at = a + s0;
        ldat = ai.n;
      }
    }
    if (at == packed) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        float* prow = packed + kk * pw;
        for (std::int64_t r = 0; r < sw; ++r) prow[r] = a[ai.index(s0 + r, kk)];
        std::fill(prow + sw, prow + pw, 0.0f);
      }
    }
    std::fill(ct, ct + m * pw, 0.0f);
    gemm_block(0, m, k, b, bi, at, ldat, 0, ct, pw, 0, pw);
    for (std::int64_t r = 0; r < sw; ++r) {
      float* crow = c + (s0 + r) * m;
      for (std::int64_t j = 0; j < m; ++j) crow[j] += ct[j * pw + r];
    }
  }
}

// Per-chunk entry points. target_clones compiles each body (with the
// templates above flattened in) for AVX-512, AVX2 and baseline x86-64; the
// loader picks the widest clone the CPU supports, so the binary stays
// portable while the hot loops use the full vector width of the machine.
// ThreadSanitizer cannot coexist with the ifunc resolvers target_clones
// emits (they run during relocation, before the TSan runtime initializes,
// and crash at startup), so sanitized builds compile the default ISA only —
// they are correctness artifacts, not perf artifacts.
#if defined(__SANITIZE_THREAD__)
#define CALIBRE_KERNEL_CLONES __attribute__((flatten))
#else
#define CALIBRE_KERNEL_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                               "default"), flatten))
#endif

// All three products send an output narrower than one vf (m < 16) through
// gemm_ct: in row-major C every one of its columns would otherwise fall to
// gemm_block's scalar tail.
//
// Below the gate B is read in place (row stride m). Above it each full
// 32-column panel is copied once per chunk into contiguous k x 32 scratch,
// so the microtiles of every row tile read it at stride 32 from L2 instead
// of at stride m; the m % 32 tail keeps the strided path. Every output
// element still runs through the same microtile over the same operands in
// the same k order.
CALIBRE_KERNEL_CLONES
void gemm_chunk_nn(std::int64_t i0, std::int64_t i1, std::int64_t k,
                   std::int64_t m, const float* a, const float* b, float* c) {
  if (m < kVecWidth) {
    gemm_ct(i0, i1, k, m, a, NoTransA{k}, b, TransA{m}, c);
    return;
  }
  std::int64_t full = 0;
  if (k * m >= kPackMinFloats) {
    full = m - m % kColTile;
    float* panel = scratch(k * kColTile);
    for (std::int64_t j0 = 0; j0 < full; j0 += kColTile) {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        std::copy_n(b + kk * m + j0, kColTile, panel + kk * kColTile);
      }
      gemm_block(i0, i1, k, a, NoTransA{k}, panel, kColTile, 0, c, m, j0,
                 kColTile);
    }
  }
  gemm_block(i0, i1, k, a, NoTransA{k}, b, m, full, c, m, full, m - full);
}

CALIBRE_KERNEL_CLONES
void gemm_chunk_tn(std::int64_t i0, std::int64_t i1, std::int64_t n,
                   std::int64_t k, std::int64_t m, const float* a,
                   const float* b, float* c) {
  if (m < kVecWidth) {
    gemm_ct(i0, i1, k, m, a, TransA{n}, b, TransA{m}, c);
    return;
  }
  gemm_block(i0, i1, k, a, TransA{n}, b, m, 0, c, m, 0, m);
}

// A*B^T: both operands contract along contiguous rows, so one of them is
// packed transposed and the plain microkernel runs on the packed panel.
// By default that is B^T, one kColTile-wide panel at a time (k x 32 floats,
// L1/L2 resident): O(k*m) packing per chunk against O(rows*k*m) compute.
// A narrow output, and above the gate a chunk with fewer rows than B, packs
// A^T instead (gemm_ct). The result equals the default path's because C is
// zero on entry.
CALIBRE_KERNEL_CLONES
void gemm_chunk_nt(std::int64_t i0, std::int64_t i1, std::int64_t k,
                   std::int64_t m, const float* a, const float* b, float* c) {
  if (m < kVecWidth || (k * m >= kPackMinFloats && i1 - i0 < m)) {
    gemm_ct(i0, i1, k, m, a, NoTransA{k}, b, NoTransA{k}, c);
    return;
  }
  float* packed = scratch(k * std::min(kColTile, m));
  for (std::int64_t j0 = 0; j0 < m; j0 += kColTile) {
    const std::int64_t jw = std::min(kColTile, m - j0);
    for (std::int64_t jj = 0; jj < jw; ++jj) {
      const float* brow = b + (j0 + jj) * k;
      for (std::int64_t kk = 0; kk < k; ++kk) packed[kk * jw + jj] = brow[kk];
    }
    gemm_block(i0, i1, k, a, NoTransA{k}, packed, jw, 0, c, m, j0, jw);
  }
}

CALIBRE_KERNEL_CLONES
void row_sq_norms_impl(std::int64_t n, std::int64_t k, const float* a,
                       float* out) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = a + i * k;
    std::int64_t j = 0;
    if (k >= kVecWidth) {
      vf acc = {};
      for (; j + kVecWidth <= k; j += kVecWidth) {
        const vf v = *vload(row + j);
        acc += v * v;
      }
      float total = 0.0f;
      for (std::int64_t lane = 0; lane < kVecWidth; ++lane) total += acc[lane];
      out[i] += total;
    }
    float tail = 0.0f;
    for (; j < k; ++j) tail += row[j] * row[j];
    out[i] += tail;
  }
}

}  // namespace

namespace {

// Runtime override of the parallelism threshold (0 = none; see the setter).
// The bench harness uses it to time the same kernels serial vs parallel in
// one process, which the env-var path (read once into a static) cannot do.
std::atomic<std::int64_t>& threshold_override() {
  static std::atomic<std::int64_t> value{0};
  return value;
}

}  // namespace

void set_parallel_threshold_override(std::int64_t flops) {
  threshold_override().store(flops, std::memory_order_relaxed);
}

std::int64_t parallel_flop_threshold() {
  const std::int64_t forced =
      threshold_override().load(std::memory_order_relaxed);
  if (forced < 0) return -1;  // <= 0 disables parallelism (see caller)
  if (forced > 0) return forced;
  // ~2 MFLOP: a 128x128x64 product. Below this, thread dispatch costs more
  // than the arithmetic saved. Flops alone do not decide: a wide layer's
  // 32-row product (32x1024x1024, 67 MFLOP) is far above it, and stays
  // serial only because 32 rows make one kRowGrain chunk.
  static const std::int64_t threshold = []() -> std::int64_t {
    const int env_value = env::get_int("CALIBRE_KERNEL_PAR_FLOPS", 0);
    if (env_value != 0) return env_value;
    return std::int64_t{1} << 21;
  }();
  return threshold;
}

void gemm(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
          const float* b, float* c) {
  for_each_row_chunk(n, 2 * n * k * m,
                     [&](std::int64_t begin, std::int64_t end) {
                       gemm_chunk_nn(begin, end, k, m, a, b, c);
                     });
}

void gemm_tn(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
             const float* b, float* c) {
  for_each_row_chunk(n, 2 * n * k * m,
                     [&](std::int64_t begin, std::int64_t end) {
                       gemm_chunk_tn(begin, end, n, k, m, a, b, c);
                     });
}

void gemm_nt(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
             const float* b, float* c) {
  for_each_row_chunk(n, 2 * n * k * m,
                     [&](std::int64_t begin, std::int64_t end) {
                       gemm_chunk_nt(begin, end, k, m, a, b, c);
                     });
}

void row_sq_norms(std::int64_t n, std::int64_t k, const float* a, float* out) {
  row_sq_norms_impl(n, k, a, out);
}

}  // namespace calibre::tensor::kernels

// --- Tensor-level wrappers (declared in tensor.h) ------------------------------

namespace calibre::tensor {

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  CALIBRE_CHECK_EQ(a.cols(), b.cols(),
                   "matmul_nt " << a.shape_string() << " x "
                                << b.shape_string() << "^T");
  Tensor out(a.rows(), b.rows());
  kernels::gemm_nt(a.rows(), a.cols(), b.rows(), a.data(), b.data(),
                   out.data());
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  CALIBRE_CHECK_EQ(a.rows(), b.rows(),
                   "matmul_tn " << a.shape_string() << "^T x "
                                << b.shape_string());
  Tensor out(a.cols(), b.cols());
  kernels::gemm_tn(a.cols(), a.rows(), b.cols(), a.data(), b.data(),
                   out.data());
  return out;
}

Tensor pairwise_sq_dists(const Tensor& a, const Tensor& b) {
  CALIBRE_CHECK_EQ(a.cols(), b.cols(), "pairwise_sq_dists dim mismatch");
  const std::int64_t n = a.rows();
  const std::int64_t m = b.rows();
  const std::int64_t k = a.cols();
  // ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y — one GEMM instead of an O(n*m*k)
  // scalar loop. Float cancellation can leave tiny negatives where the true
  // distance is ~0; clamp, since callers treat the result as a distance.
  std::vector<float> a_sq(static_cast<std::size_t>(n), 0.0f);
  std::vector<float> b_sq(static_cast<std::size_t>(m), 0.0f);
  kernels::row_sq_norms(n, k, a.data(), a_sq.data());
  kernels::row_sq_norms(m, k, b.data(), b_sq.data());
  Tensor out(n, m);
  kernels::gemm_nt(n, k, m, a.data(), b.data(), out.data());
  float* od = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    float* row = od + i * m;
    const float ai = a_sq[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < m; ++j) {
      row[j] = std::max(ai + b_sq[static_cast<std::size_t>(j)] - 2.0f * row[j],
                        0.0f);
    }
  }
  return out;
}

}  // namespace calibre::tensor
