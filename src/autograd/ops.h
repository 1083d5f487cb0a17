// Differentiable op library.
//
// Primitive ops carry hand-derived backward closures; everything else in the
// library (losses, normalisation, softmax) is composed from these primitives,
// so the gradient-check tests on the primitives cover the whole stack.
//
// Broadcasting: add/sub/mul/div support full 2-D broadcasting; their backward
// reduces the upstream gradient over the broadcast dimensions
// (tensor::reduce_to_shape).
#pragma once

#include <vector>

#include "autograd/variable.h"

namespace calibre::ag {

// --- binary elementwise (2-D broadcasting) ----------------------------------
VarPtr add(const VarPtr& a, const VarPtr& b);
VarPtr sub(const VarPtr& a, const VarPtr& b);
VarPtr mul(const VarPtr& a, const VarPtr& b);
VarPtr div(const VarPtr& a, const VarPtr& b);

// --- scalar ------------------------------------------------------------------
VarPtr add_scalar(const VarPtr& a, float s);
VarPtr mul_scalar(const VarPtr& a, float s);

// --- unary elementwise ---------------------------------------------------------
VarPtr neg(const VarPtr& a);
VarPtr exp(const VarPtr& a);
VarPtr log(const VarPtr& a);   // caller guarantees positive input
VarPtr sqrt(const VarPtr& a);  // caller guarantees non-negative input
VarPtr relu(const VarPtr& a);
VarPtr square(const VarPtr& a);

// --- linear algebra ------------------------------------------------------------
VarPtr matmul(const VarPtr& a, const VarPtr& b);
// a [N,K] x b [M,K] -> [N,M]: A·Bᵀ with the transpose fused into the GEMM —
// neither the forward nor the backward pass materializes a transposed copy.
VarPtr matmul_nt(const VarPtr& a, const VarPtr& b);
// a [K,N] x b [K,M] -> [N,M]: Aᵀ·B, likewise transpose-free.
VarPtr matmul_tn(const VarPtr& a, const VarPtr& b);
VarPtr transpose(const VarPtr& a);

// --- reductions ------------------------------------------------------------------
VarPtr row_sum(const VarPtr& a);  // [N,D] -> [N,1]
VarPtr col_sum(const VarPtr& a);  // [N,D] -> [1,D]
VarPtr sum_all(const VarPtr& a);  // [N,D] -> [1,1]

// --- structural --------------------------------------------------------------------
VarPtr concat_rows(const std::vector<VarPtr>& parts);
VarPtr concat_cols(const std::vector<VarPtr>& parts);
VarPtr slice_rows(const VarPtr& a, std::int64_t begin, std::int64_t end);
// out[r,0] = a[r, idx[r]]; backward scatters into the gathered columns.
VarPtr gather_cols(const VarPtr& a, std::vector<int> idx);
// Row gather with repetition allowed; backward scatter-adds rows.
VarPtr take_rows(const VarPtr& a, std::vector<int> indices);

// Cuts the graph: returns a constant holding a's current value.
VarPtr detach(const VarPtr& a);

// --- composites & fused primitives ------------------------------------------
// Mean over all elements -> scalar.
VarPtr mean_all(const VarPtr& a);
// Row-wise mean -> [N,1].
VarPtr row_mean(const VarPtr& a);
// Numerically stable row-wise log-softmax. Fused primitive: single-pass
// forward kernel, analytic backward g - softmax(x)·rowsum(g).
VarPtr log_softmax(const VarPtr& a);
// Row-wise softmax. Fused primitive: backward s⊙(g - rowsum(g⊙s)).
VarPtr softmax(const VarPtr& a);
// Fused NT-Xent logits for [2N,D] normalised embeddings z: (z·zᵀ)/T with the
// self-similarity diagonal masked to -1e9 in the same pass. Backward routes
// dL/dz = (G + Gᵀ)·z / T (diagonal of G zeroed) through accumulating GEMMs.
VarPtr ntxent_logits(const VarPtr& z, float temperature);
// Fused affine map x·W + b (b broadcast over rows; may be null). One node
// instead of matmul+add; backward feeds dL/dW and dL/db directly.
VarPtr affine(const VarPtr& x, const VarPtr& w, const VarPtr& b);
// Fused per-row layer normalisation (x - mean)/sqrt(var + eps) * gamma +
// beta, one node instead of the 9-node composite chain.
VarPtr layer_norm(const VarPtr& x, const VarPtr& gamma, const VarPtr& beta,
                  float eps);
// Mean negative log-likelihood of integer labels under row-softmax of logits.
VarPtr cross_entropy(const VarPtr& logits, const std::vector<int>& labels);
// Cross entropy against a fixed soft target distribution (rows sum to 1).
VarPtr cross_entropy_soft(const VarPtr& logits,
                          const tensor::Tensor& targets);
// Row-wise L2 normalisation with epsilon inside the square root. Fused
// primitive: one forward pass producing rows/norms, analytic backward
// (g - y·(g·y)) / n per row.
VarPtr l2_normalize(const VarPtr& a, float eps = 1e-8f);
// Mean squared error against a fixed target.
VarPtr mse(const VarPtr& a, const tensor::Tensor& target);

}  // namespace calibre::ag
