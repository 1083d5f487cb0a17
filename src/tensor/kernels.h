// Tensor kernel layer: cache-blocked, vectorization-friendly SGEMM (plus
// fused-transpose variants) and a GEMM-based pairwise squared distance,
// with optional row-partitioned multithreading.
//
// Every tensor primitive on a training hot path funnels through this file:
// encoder forward/backward (matmul + its backward products), NT-Xent's B×B
// similarity matrix, and the KMeans / prototype / divergence / t-SNE
// distance computations. The kernels operate on raw row-major contiguous
// storage; the Tensor-level wrappers (tensor::matmul, tensor::matmul_nt,
// tensor::matmul_tn, tensor::pairwise_sq_dists) validate shapes and
// allocate outputs.
//
// Blocking scheme (see DESIGN.md "Kernel layer"):
//  * gemm / gemm_tn: the output is walked in register tiles of
//    kRowTile x kColTile (8 x 32); for each tile the full K dimension is
//    swept with the C tile held in SIMD accumulator registers and written
//    back exactly once, while B streams 32 contiguous floats per step and A
//    contributes one broadcast scalar per row. The microkernel is written
//    with GCC vector extensions and compiled via target_clones for
//    AVX-512 / AVX2 / baseline x86-64 — the loader picks the widest clone
//    the CPU supports, so the binary stays portable.
//  * gemm_nt: both operands contract along contiguous rows, so the kernel
//    packs one kColTile-wide panel of B^T at a time (k x 32 floats,
//    cache-resident; O(k*m) packing against O(n*k*m) compute) and reuses
//    the plain microkernel on the packed panel.
//  * Wide operands (B of at least kPackMinFloats = 2^19 floats, 2 MiB):
//    gemm copies each full 32-column panel of B into contiguous scratch
//    once per row chunk, so the tiles read it at stride 32 instead of at
//    stride m (4 KiB at m = 1024, where the strip no longer stays cached);
//    the m % 32 tail keeps the strided path. gemm_nt, on a chunk with fewer
//    rows than B, packs the smaller operand instead: A^T, 32 rows at a
//    time, computing C^T = B*A^T and adding it into C. Below the gate both
//    keep the plain paths (kernels.cc gives the measured reason). Panel
//    scratch is one thread_local buffer grown to the largest panel.
//    Neither path changes a bit: every output element is the same k-ordered
//    chain through the same microkernel arithmetic (multiply and fma
//    commute bitwise). gemm_tn is unchanged: its B (a batch of gradients)
//    stays below the gate in training.
//  * Narrow outputs (m < 16 columns: KMeans and prototype distances against
//    k = 10 centroids, 10-class probe and classifier heads): a row of C is
//    narrower than one vector group, so the tiles would leave every column
//    to the scalar tail. All three kernels compute C^T = B^T * A^T instead:
//    the m columns of C become microtile rows and up to 32 rows of A its
//    vector columns, as a zero-padded k x 16 or k x 32 panel of A^T (gemm
//    and gemm_nt pack it; gemm_tn's A is already [k, n] and a full stripe
//    is read in place at stride n). The stripe's C^T is added into C. It
//    reuses the panel scratch, and each element is the same k-ordered chain
//    from 0 as in the tiles.
//  * pairwise_sq_dists: the ||a||^2 + ||b||^2 - 2 a.b^T decomposition; the
//    cross term is a gemm_nt, the norms are single vectorized passes, and
//    the combine clamps tiny negative float residue to zero.
//
// Parallelism: kernels whose flop count exceeds parallel_flop_threshold()
// are row-partitioned over a process-wide ThreadPool via parallel_for with
// a grain of kRowGrain = 32 rows. Partitioning is by output row and
// every element's chain is the same whichever tile or thread computes it,
// so results are bitwise identical for any thread count. A per-client
// batch of 32 rows is one chunk and stays on the calling thread whatever
// its flop count.
//
// Row-count invariance (a relied-upon contract): an output row's bits
// depend only on its own row of A and on B, never on how many other rows
// are in the call or how they are split into tiles, chunks and packed
// panels. core::PflSsl's personalization table encodes each distinct row
// once, in whatever 64-row slice it lands in, and hands its features to
// every client that reads it (DESIGN.md §7.3). A kernel change that made a
// row's result depend on n would silently change every personalization
// accuracy. KernelBitwise.* (kernels) and EncoderRowInvariance.* (the whole
// encoder) pin it.
//
// Determinism: every run on the same machine produces identical results
// (the clone choice and the accumulation order are fixed per CPU). Across
// machines with different vector widths the accumulation order — and hence
// float rounding — may differ, like any vectorized BLAS.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace calibre::tensor::kernels {

// Flop count (2*n*k*m) above which a GEMM is partitioned across the kernel
// thread pool (default 2^21, a 128x128x64 product). Overridable through the
// CALIBRE_KERNEL_PAR_FLOPS environment variable; values <= 0 disable kernel
// parallelism entirely.
std::int64_t parallel_flop_threshold();

// Runtime override of the threshold (takes precedence over the env var):
// 0 restores the default, negative forces serial execution, positive sets
// the threshold directly. Used by the bench harness to time the same kernel
// serial and parallel within one process.
void set_parallel_threshold_override(std::int64_t flops);

// Raw row-major kernels. Output `c` accumulates: callers pass
// zero-initialised (gemm and gemm_tn also accept partial-result) storage.
// All pointers reference dense row-major buffers; `c` must not alias `a` or
// `b`.
//
// Partial results: a tile computes each element's k-ordered chain from 0
// and adds it to C once (c += chain). That holds for every element of a
// narrow output (m < 16) and for the full 16-column groups of a wider one;
// only the m % 16 tail columns of a wider output run their chain from C's
// value. On zeroed C the two agree bit for bit. The one caller that
// accumulates into a non-zero C, NT-Xent's backward (gemm then gemm_tn into
// one dL/dz buffer), has m = the projection width (SslConfig::proj_dim,
// 32; only unit tests set it below 16). KernelBitwise.* pins the narrow
// rule.

// c[n,m] += a[n,k] * b[k,m]
void gemm(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
          const float* b, float* c);

// c[n,m] += a[n,k] * b[m,k]^T  (fused transpose: b stays row-major [m,k])
// Precondition: c is zero on entry. The narrow and wide paths compute c^T
// apart and add it in, which matches the in-place chain bitwise only from
// zero.
// matmul_nt, pairwise_sq_dists and NT-Xent's logits all pass fresh zeroed
// outputs.
void gemm_nt(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
             const float* b, float* c);

// c[n,m] += a[k,n]^T * b[k,m]  (fused transpose: a stays row-major [k,n])
void gemm_tn(std::int64_t n, std::int64_t k, std::int64_t m, const float* a,
             const float* b, float* c);

// out[i] += sum_j a[i,j]^2 for each of the n rows of a[n,k].
void row_sq_norms(std::int64_t n, std::int64_t k, const float* a, float* out);

// --- naive references --------------------------------------------------------
// The seed's scalar implementations, kept verbatim as the golden reference
// for the kernel-parity tests and as the baseline the bench suite reports
// speedups against. Not for production call sites.
Tensor matmul_naive(const Tensor& a, const Tensor& b);
Tensor pairwise_sq_dists_naive(const Tensor& a, const Tensor& b);

}  // namespace calibre::tensor::kernels
