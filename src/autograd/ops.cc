#include "autograd/ops.h"

#include <cmath>
#include <utility>

#include "common/check.h"
#include "tensor/kernels.h"

namespace calibre::ag {
namespace {

using tensor::Tensor;

// Builds an interior node. When no parent requires gradients the node is
// demoted to a constant (no parents, no closure), which prunes dead branches
// from the tape.
VarPtr make_node(Tensor value, std::vector<VarPtr> parents,
                 std::function<void(Variable&)> backward_fn) {
  auto node = std::make_shared<Variable>(std::move(value));
  bool requires_g = false;
  if (grad_enabled()) {
    for (const VarPtr& parent : parents) requires_g |= parent->requires_grad;
  }
  node->requires_grad = requires_g;
  if (requires_g) {
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
  }
  return node;
}

// Move-aware gradient hand-off: gives the closure's storage to the parent
// (free when the parent has no gradient yet). Backward closures below route
// every freshly built gradient — including a consumed self.grad — through
// this overload, so the backward pass recycles buffers instead of copying
// them.
void push(const VarPtr& parent, Tensor&& g) {
  if (parent->requires_grad) parent->accumulate_grad(std::move(g));
}

}  // namespace

// Closure conventions for the backward pass:
//  * An interior node's grad is consumed exactly once (reverse topological
//    order runs each backward_fn a single time), so a closure may mutate
//    self.grad in place and move it into its LAST push.
//  * Per-parent gradient math is guarded by parent->requires_grad so a
//    constant operand costs nothing on the backward pass.

VarPtr add(const VarPtr& a, const VarPtr& b) {
  return make_node(
      tensor::add(a->value, b->value), {a, b}, [a, b](Variable& self) {
        if (a->requires_grad) {
          push(a, tensor::reduce_to_shape(self.grad, a->value.rows(),
                                          a->value.cols()));
        }
        if (b->requires_grad) {
          push(b, tensor::reduce_to_shape(std::move(self.grad),
                                          b->value.rows(), b->value.cols()));
        }
      });
}

VarPtr sub(const VarPtr& a, const VarPtr& b) {
  return make_node(
      tensor::sub(a->value, b->value), {a, b}, [a, b](Variable& self) {
        if (a->requires_grad) {
          push(a, tensor::reduce_to_shape(self.grad, a->value.rows(),
                                          a->value.cols()));
        }
        if (b->requires_grad) {
          self.grad.scale_(-1.0f);
          push(b, tensor::reduce_to_shape(std::move(self.grad),
                                          b->value.rows(), b->value.cols()));
        }
      });
}

VarPtr mul(const VarPtr& a, const VarPtr& b) {
  return make_node(
      tensor::mul(a->value, b->value), {a, b}, [a, b](Variable& self) {
        if (a->requires_grad) {
          push(a, tensor::reduce_to_shape(tensor::mul(self.grad, b->value),
                                          a->value.rows(), a->value.cols()));
        }
        if (b->requires_grad) {
          push(b, tensor::reduce_to_shape(tensor::mul(self.grad, a->value),
                                          b->value.rows(), b->value.cols()));
        }
      });
}

VarPtr div(const VarPtr& a, const VarPtr& b) {
  return make_node(
      tensor::div(a->value, b->value), {a, b}, [a, b](Variable& self) {
        if (a->requires_grad) {
          push(a, tensor::reduce_to_shape(tensor::div(self.grad, b->value),
                                          a->value.rows(), a->value.cols()));
        }
        if (b->requires_grad) {
          // d(a/b)/db = -(a/b) / b = -value / b
          Tensor gb = tensor::div(self.value, b->value);
          gb.scale_(-1.0f);
          push(b, tensor::reduce_to_shape(tensor::mul(self.grad, gb),
                                          b->value.rows(), b->value.cols()));
        }
      });
}

VarPtr add_scalar(const VarPtr& a, float s) {
  return make_node(tensor::add_scalar(a->value, s), {a}, [a](Variable& self) {
    push(a, std::move(self.grad));
  });
}

VarPtr mul_scalar(const VarPtr& a, float s) {
  return make_node(tensor::mul_scalar(a->value, s), {a},
                   [a, s](Variable& self) {
                     self.grad.mul_scalar_(s);
                     push(a, std::move(self.grad));
                   });
}

VarPtr neg(const VarPtr& a) {
  return make_node(tensor::neg(a->value), {a}, [a](Variable& self) {
    self.grad.scale_(-1.0f);
    push(a, std::move(self.grad));
  });
}

VarPtr exp(const VarPtr& a) {
  return make_node(tensor::exp(a->value), {a}, [a](Variable& self) {
    self.grad.mul_(self.value);
    push(a, std::move(self.grad));
  });
}

VarPtr log(const VarPtr& a) {
  return make_node(tensor::log(a->value), {a}, [a](Variable& self) {
    self.grad.div_(a->value);
    push(a, std::move(self.grad));
  });
}

VarPtr sqrt(const VarPtr& a) {
  return make_node(tensor::sqrt(a->value), {a}, [a](Variable& self) {
    // d sqrt(x) = 0.5 / sqrt(x)
    self.grad.mul_scalar_(0.5f);
    self.grad.div_(self.value);
    push(a, std::move(self.grad));
  });
}

VarPtr relu(const VarPtr& a) {
  return make_node(tensor::relu(a->value), {a}, [a](Variable& self) {
    float* gd = self.grad.data();
    const float* av = a->value.data();
    const std::int64_t size = self.grad.size();
    for (std::int64_t i = 0; i < size; ++i) {
      gd[i] = av[i] > 0.0f ? gd[i] : 0.0f;  // branchless: vectorizes to a mask
    }
    push(a, std::move(self.grad));
  });
}

VarPtr tanh(const VarPtr& a) {
  return make_node(tensor::tanh(a->value), {a}, [a](Variable& self) {
    // d tanh(x) = 1 - tanh(x)^2
    float* gd = self.grad.data();
    const float* out = self.value.data();
    const std::int64_t size = self.grad.size();
    for (std::int64_t i = 0; i < size; ++i) {
      gd[i] *= 1.0f - out[i] * out[i];
    }
    push(a, std::move(self.grad));
  });
}

VarPtr square(const VarPtr& a) {
  return make_node(tensor::square(a->value), {a}, [a](Variable& self) {
    float* gd = self.grad.data();
    const float* av = a->value.data();
    const std::int64_t size = self.grad.size();
    for (std::int64_t i = 0; i < size; ++i) {
      gd[i] *= 2.0f * av[i];
    }
    push(a, std::move(self.grad));
  });
}

VarPtr matmul(const VarPtr& a, const VarPtr& b) {
  return make_node(
      tensor::matmul(a->value, b->value), {a, b}, [a, b](Variable& self) {
        if (a->requires_grad) {
          push(a, tensor::matmul_nt(self.grad, b->value));  // G·Bᵀ
        }
        if (b->requires_grad) {
          push(b, tensor::matmul_tn(a->value, self.grad));  // Aᵀ·G
        }
      });
}

VarPtr matmul_nt(const VarPtr& a, const VarPtr& b) {
  // value = A·Bᵀ with A [N,K], B [M,K].
  return make_node(
      tensor::matmul_nt(a->value, b->value), {a, b}, [a, b](Variable& self) {
        if (a->requires_grad) {
          push(a, tensor::matmul(self.grad, b->value));  // G·B
        }
        if (b->requires_grad) {
          push(b, tensor::matmul_tn(self.grad, a->value));  // Gᵀ·A
        }
      });
}

VarPtr matmul_tn(const VarPtr& a, const VarPtr& b) {
  // value = Aᵀ·B with A [K,N], B [K,M].
  return make_node(
      tensor::matmul_tn(a->value, b->value), {a, b}, [a, b](Variable& self) {
        if (a->requires_grad) {
          push(a, tensor::matmul_nt(b->value, self.grad));  // B·Gᵀ
        }
        if (b->requires_grad) {
          push(b, tensor::matmul(a->value, self.grad));  // A·G
        }
      });
}

VarPtr transpose(const VarPtr& a) {
  return make_node(tensor::transpose(a->value), {a}, [a](Variable& self) {
    // The gradient of a transpose is a transpose; write it with a raw
    // scatter loop so the closure stays free of materializing helpers.
    const std::int64_t rows = self.grad.rows();
    const std::int64_t cols = self.grad.cols();
    Tensor g = Tensor::uninit(cols, rows);
    const float* src = self.grad.data();
    float* dst = g.data();
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = 0; c < cols; ++c) {
        dst[c * rows + r] = src[r * cols + c];
      }
    }
    push(a, std::move(g));
  });
}

VarPtr row_sum(const VarPtr& a) {
  return make_node(tensor::row_sum(a->value), {a}, [a](Variable& self) {
    // Broadcast [N,1] back to [N,D].
    Tensor g = Tensor::uninit(a->value.rows(), a->value.cols());
    const float* gr = self.grad.data();
    float* gd = g.data();
    const std::int64_t cols = g.cols();
    for (std::int64_t r = 0; r < g.rows(); ++r) {
      const float v = gr[r];
      float* row = gd + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) row[c] = v;
    }
    push(a, std::move(g));
  });
}

VarPtr col_sum(const VarPtr& a) {
  return make_node(tensor::col_sum(a->value), {a}, [a](Variable& self) {
    Tensor g = Tensor::uninit(a->value.rows(), a->value.cols());
    const float* gr = self.grad.data();
    float* gd = g.data();
    const std::int64_t cols = g.cols();
    for (std::int64_t r = 0; r < g.rows(); ++r) {
      float* row = gd + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) row[c] = gr[c];
    }
    push(a, std::move(g));
  });
}

VarPtr sum_all(const VarPtr& a) {
  return make_node(tensor::sum_all(a->value), {a}, [a](Variable& self) {
    push(a, Tensor::full(a->value.rows(), a->value.cols(), self.grad(0, 0)));
  });
}

VarPtr concat_rows(const std::vector<VarPtr>& parts) {
  CALIBRE_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const VarPtr& part : parts) values.push_back(part->value);
  std::vector<VarPtr> parents = parts;
  return make_node(tensor::concat_rows(values), std::move(parents),
                   [parts](Variable& self) {
                     std::int64_t offset = 0;
                     for (const VarPtr& part : parts) {
                       if (part->requires_grad) {
                         push(part, tensor::slice_rows(
                                        self.grad, offset,
                                        offset + part->value.rows()));
                       }
                       offset += part->value.rows();
                     }
                   });
}

VarPtr concat_cols(const std::vector<VarPtr>& parts) {
  CALIBRE_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const VarPtr& part : parts) values.push_back(part->value);
  std::vector<VarPtr> parents = parts;
  return make_node(tensor::concat_cols(values), std::move(parents),
                   [parts](Variable& self) {
                     std::int64_t offset = 0;
                     for (const VarPtr& part : parts) {
                       if (part->requires_grad) {
                         push(part, tensor::slice_cols(
                                        self.grad, offset,
                                        offset + part->value.cols()));
                       }
                       offset += part->value.cols();
                     }
                   });
}

VarPtr slice_rows(const VarPtr& a, std::int64_t begin, std::int64_t end) {
  return make_node(tensor::slice_rows(a->value, begin, end), {a},
                   [a, begin](Variable& self) {
                     // Zero-initialised scatter target: rows outside the
                     // slice contribute no gradient.
                     Tensor g(a->value.rows(), a->value.cols());
                     for (std::int64_t r = 0; r < self.grad.rows(); ++r) {
                       for (std::int64_t c = 0; c < g.cols(); ++c) {
                         g(begin + r, c) = self.grad(r, c);
                       }
                     }
                     push(a, std::move(g));
                   });
}

VarPtr gather_cols(const VarPtr& a, std::vector<int> idx) {
  Tensor value = tensor::gather_cols(a->value, idx);
  return make_node(std::move(value), {a},
                   [a, idx = std::move(idx)](Variable& self) {
                     Tensor g(a->value.rows(), a->value.cols());
                     for (std::int64_t r = 0; r < g.rows(); ++r) {
                       g(r, idx[static_cast<std::size_t>(r)]) +=
                           self.grad(r, 0);
                     }
                     push(a, std::move(g));
                   });
}

VarPtr take_rows(const VarPtr& a, std::vector<int> indices) {
  Tensor value = tensor::take_rows(a->value, indices);
  return make_node(std::move(value), {a},
                   [a, indices = std::move(indices)](Variable& self) {
                     Tensor g(a->value.rows(), a->value.cols());
                     for (std::size_t i = 0; i < indices.size(); ++i) {
                       const std::int64_t src =
                           static_cast<std::int64_t>(i);
                       const std::int64_t dst = indices[i];
                       for (std::int64_t c = 0; c < g.cols(); ++c) {
                         g(dst, c) += self.grad(src, c);
                       }
                     }
                     push(a, std::move(g));
                   });
}

VarPtr detach(const VarPtr& a) { return constant(a->value); }

VarPtr mean_all(const VarPtr& a) {
  CALIBRE_CHECK(a->value.size() > 0);
  return mul_scalar(sum_all(a), 1.0f / static_cast<float>(a->value.size()));
}

VarPtr row_mean(const VarPtr& a) {
  CALIBRE_CHECK(a->value.cols() > 0);
  return mul_scalar(row_sum(a), 1.0f / static_cast<float>(a->value.cols()));
}

VarPtr log_softmax(const VarPtr& a) {
  // Fused primitive: the forward is the single-pass tensor kernel, and the
  // backward uses the identity d/dx log_softmax = g - softmax(x)·rowsum(g)
  // where softmax(x) = exp(log_softmax(x)) is recovered from the output —
  // no max-shift intermediates or graph nodes are materialized.
  return make_node(
      tensor::log_softmax_rows(a->value), {a}, [a](Variable& self) {
        float* gd = self.grad.data();
        const float* out = self.value.data();
        const std::int64_t rows = self.grad.rows();
        const std::int64_t cols = self.grad.cols();
        for (std::int64_t r = 0; r < rows; ++r) {
          float* grow = gd + r * cols;
          const float* orow = out + r * cols;
          float total = 0.0f;
          for (std::int64_t c = 0; c < cols; ++c) total += grow[c];
          for (std::int64_t c = 0; c < cols; ++c) {
            grow[c] -= std::exp(orow[c]) * total;
          }
        }
        push(a, std::move(self.grad));
      });
}

VarPtr softmax(const VarPtr& a) {
  // Fused primitive: backward is g' = s ⊙ (g − rowsum(g ⊙ s)) with
  // s = softmax(x) read from the node's own output.
  return make_node(tensor::softmax_rows(a->value), {a}, [a](Variable& self) {
    float* gd = self.grad.data();
    const float* out = self.value.data();
    const std::int64_t rows = self.grad.rows();
    const std::int64_t cols = self.grad.cols();
    for (std::int64_t r = 0; r < rows; ++r) {
      float* grow = gd + r * cols;
      const float* srow = out + r * cols;
      float dot = 0.0f;
      for (std::int64_t c = 0; c < cols; ++c) dot += grow[c] * srow[c];
      for (std::int64_t c = 0; c < cols; ++c) {
        grow[c] = srow[c] * (grow[c] - dot);
      }
    }
    push(a, std::move(self.grad));
  });
}

VarPtr cross_entropy(const VarPtr& logits, const std::vector<int>& labels) {
  CALIBRE_CHECK_MSG(
      static_cast<std::int64_t>(labels.size()) == logits->value.rows(),
      "cross_entropy: one label per row");
  const VarPtr picked = gather_cols(log_softmax(logits), labels);
  return neg(mean_all(picked));
}

VarPtr cross_entropy_soft(const VarPtr& logits, const tensor::Tensor& targets) {
  CALIBRE_CHECK_MSG(targets.rows() == logits->value.rows() &&
                        targets.cols() == logits->value.cols(),
                    "cross_entropy_soft shape mismatch");
  const VarPtr weighted = mul(log_softmax(logits), constant(targets));
  const float n = static_cast<float>(logits->value.rows());
  return neg(mul_scalar(sum_all(weighted), 1.0f / n));
}

VarPtr l2_normalize(const VarPtr& a, float eps) {
  // Fused primitive replacing the sqrt(row_sum(square(a)) + eps) composite
  // (5 graph nodes, 6 tensor intermediates). Forward computes the row norms
  // n_r = sqrt(Σ a² + eps) and y = a / n in one pass; the norms travel to
  // the backward closure by value. Backward: dL/da = (g − y·(g·y)) / n per
  // row, where (g·y) is the row dot product.
  const std::int64_t rows = a->value.rows();
  const std::int64_t cols = a->value.cols();
  Tensor norms = Tensor::uninit(rows, 1);
  Tensor out = Tensor::uninit(rows, cols);
  const float* ad = a->value.data();
  float* od = out.data();
  float* nd = norms.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* arow = ad + r * cols;
    float sq = 0.0f;
    for (std::int64_t c = 0; c < cols; ++c) sq += arow[c] * arow[c];
    const float n = std::sqrt(sq + eps);
    nd[r] = n;
    const float inv = 1.0f / n;
    float* orow = od + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) orow[c] = arow[c] * inv;
  }
  return make_node(
      std::move(out), {a}, [a, norms = std::move(norms)](Variable& self) {
        float* gd = self.grad.data();
        const float* yd = self.value.data();
        const float* norm_d = norms.data();
        const std::int64_t g_rows = self.grad.rows();
        const std::int64_t g_cols = self.grad.cols();
        for (std::int64_t r = 0; r < g_rows; ++r) {
          float* grow = gd + r * g_cols;
          const float* yrow = yd + r * g_cols;
          float dot = 0.0f;
          for (std::int64_t c = 0; c < g_cols; ++c) dot += grow[c] * yrow[c];
          const float inv = 1.0f / norm_d[r];
          for (std::int64_t c = 0; c < g_cols; ++c) {
            grow[c] = (grow[c] - yrow[c] * dot) * inv;
          }
        }
        push(a, std::move(self.grad));
      });
}

VarPtr ntxent_logits(const VarPtr& z, float temperature) {
  // Fused NT-Xent logits: out = (z·zᵀ) / T with the diagonal masked to -1e9
  // in the same pass (the previous composite materialized the raw similarity
  // matrix, a scaled copy, a [2N,2N] mask constant, and their sum). The
  // diagonal entries are constants, so backward zeroes their upstream
  // gradient and routes dL/dz = (G + Gᵀ)·z / T through two accumulating
  // GEMMs into a single buffer.
  CALIBRE_CHECK(temperature > 0.0f);
  const std::int64_t n = z->value.rows();
  const std::int64_t k = z->value.cols();
  Tensor out(n, n);  // zero-initialised: gemm_nt accumulates into it
  tensor::kernels::gemm_nt(n, k, n, z->value.data(), z->value.data(),
                           out.data());
  const float inv_t = 1.0f / temperature;
  float* od = out.data();
  for (std::int64_t r = 0; r < n; ++r) {
    float* row = od + r * n;
    for (std::int64_t c = 0; c < n; ++c) row[c] *= inv_t;
    row[r] = -1e9f;
  }
  return make_node(
      std::move(out), {z}, [z, inv_t](Variable& self) {
        const std::int64_t zn = z->value.rows();
        const std::int64_t zk = z->value.cols();
        float* gd = self.grad.data();
        for (std::int64_t i = 0; i < zn; ++i) gd[i * zn + i] = 0.0f;
        Tensor gz(zn, zk);  // zero-initialised: both GEMMs accumulate
        tensor::kernels::gemm(zn, zn, zk, gd, z->value.data(), gz.data());
        tensor::kernels::gemm_tn(zn, zn, zk, gd, z->value.data(), gz.data());
        gz.scale_(inv_t);
        push(z, std::move(gz));
      });
}

VarPtr affine(const VarPtr& x, const VarPtr& w, const VarPtr& b) {
  // Fuses Linear's matmul + broadcast bias add into one node: the bias is
  // added into the GEMM output in place, and backward computes the three
  // gradients (G·Wᵀ, Xᵀ·G, col_sum(G)) without an intermediate tensor.
  Tensor out = tensor::matmul(x->value, w->value);
  std::vector<VarPtr> parents = {x, w};
  if (b != nullptr) {
    CALIBRE_CHECK_MSG(b->value.rows() == 1 && b->value.cols() == out.cols(),
                      "affine bias must be [1," << out.cols() << "], got "
                                                << b->value.shape_string());
    float* od = out.data();
    const float* bd = b->value.data();
    const std::int64_t cols = out.cols();
    for (std::int64_t r = 0; r < out.rows(); ++r) {
      float* row = od + r * cols;
      for (std::int64_t c = 0; c < cols; ++c) row[c] += bd[c];
    }
    parents.push_back(b);
  }
  return make_node(std::move(out), std::move(parents),
                   [x, w, b](Variable& self) {
                     if (b != nullptr && b->requires_grad) {
                       push(b, tensor::col_sum(self.grad));
                     }
                     if (x->requires_grad) {
                       push(x, tensor::matmul_nt(self.grad, w->value));
                     }
                     if (w->requires_grad) {
                       push(w, tensor::matmul_tn(x->value, self.grad));
                     }
                   });
}

VarPtr layer_norm(const VarPtr& x, const VarPtr& gamma, const VarPtr& beta,
                  float eps) {
  // Fused per-row normalisation. The composite form materializes ~9 graph
  // nodes and a dozen intermediates per call; here the forward is one pass
  // (computing mean, variance, x̂ and the output row by row) and the
  // backward applies the standard layer-norm gradient
  //   dx = (γ/σ) ⊙ (g − mean(ĝ) − x̂·mean(ĝ⊙x̂)),  ĝ = g⊙γ
  // with dγ = Σ_rows g⊙x̂ and dβ = Σ_rows g. x̂ and 1/σ are cached for the
  // closure (the same tensors the composite graph would have held alive).
  const std::int64_t rows = x->value.rows();
  const std::int64_t cols = x->value.cols();
  CALIBRE_CHECK_MSG(gamma->value.rows() == 1 && gamma->value.cols() == cols &&
                        beta->value.rows() == 1 && beta->value.cols() == cols,
                    "layer_norm gamma/beta must be [1," << cols << "]");
  CALIBRE_CHECK(cols > 0);
  Tensor xhat = Tensor::uninit(rows, cols);
  Tensor inv_std = Tensor::uninit(rows, 1);
  Tensor out = Tensor::uninit(rows, cols);
  const float* xd = x->value.data();
  const float* gd = gamma->value.data();
  const float* bd = beta->value.data();
  float* hd = xhat.data();
  float* sd = inv_std.data();
  float* od = out.data();
  const float inv_cols = 1.0f / static_cast<float>(cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* xrow = xd + r * cols;
    float mean = 0.0f;
    for (std::int64_t c = 0; c < cols; ++c) mean += xrow[c];
    mean *= inv_cols;
    float var = 0.0f;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float d = xrow[c] - mean;
      var += d * d;
    }
    var *= inv_cols;
    const float inv = 1.0f / std::sqrt(var + eps);
    sd[r] = inv;
    float* hrow = hd + r * cols;
    float* orow = od + r * cols;
    for (std::int64_t c = 0; c < cols; ++c) {
      const float h = (xrow[c] - mean) * inv;
      hrow[c] = h;
      orow[c] = h * gd[c] + bd[c];
    }
  }
  return make_node(
      std::move(out), {x, gamma, beta},
      [x, gamma, beta, xhat = std::move(xhat),
       inv_std = std::move(inv_std)](Variable& self) {
        const std::int64_t g_rows = self.grad.rows();
        const std::int64_t g_cols = self.grad.cols();
        const float g_inv_cols = 1.0f / static_cast<float>(g_cols);
        const float* grad_d = self.grad.data();
        const float* hat_d = xhat.data();
        const float* std_d = inv_std.data();
        const float* gammad = gamma->value.data();
        if (gamma->requires_grad) {
          Tensor dgamma(1, g_cols);
          float* dgd = dgamma.data();
          for (std::int64_t r = 0; r < g_rows; ++r) {
            const float* grow = grad_d + r * g_cols;
            const float* hrow = hat_d + r * g_cols;
            for (std::int64_t c = 0; c < g_cols; ++c) {
              dgd[c] += grow[c] * hrow[c];
            }
          }
          push(gamma, std::move(dgamma));
        }
        if (beta->requires_grad) {
          push(beta, tensor::col_sum(self.grad));
        }
        if (x->requires_grad) {
          Tensor dx = Tensor::uninit(g_rows, g_cols);
          float* dxd = dx.data();
          for (std::int64_t r = 0; r < g_rows; ++r) {
            const float* grow = grad_d + r * g_cols;
            const float* hrow = hat_d + r * g_cols;
            float* dxrow = dxd + r * g_cols;
            float sum_gh = 0.0f;
            float sum_gh_h = 0.0f;
            for (std::int64_t c = 0; c < g_cols; ++c) {
              const float gh = grow[c] * gammad[c];
              sum_gh += gh;
              sum_gh_h += gh * hrow[c];
            }
            const float mean_gh = sum_gh * g_inv_cols;
            const float mean_gh_h = sum_gh_h * g_inv_cols;
            const float inv = std_d[r];
            for (std::int64_t c = 0; c < g_cols; ++c) {
              const float gh = grow[c] * gammad[c];
              dxrow[c] = (gh - mean_gh - hrow[c] * mean_gh_h) * inv;
            }
          }
          push(x, std::move(dx));
        }
      });
}

VarPtr mse(const VarPtr& a, const tensor::Tensor& target) {
  const VarPtr diff = sub(a, constant(target));
  return mean_all(square(diff));
}

VarPtr sq_dists_to(const VarPtr& a, const VarPtr& centroids) {
  // ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2 via broadcasting:
  // [N,1] + [1,K] - 2 [N,K]. The cross term fuses the centroid transpose
  // into the GEMM; only the [K,1] norm vector is ever transposed.
  const VarPtr x_sq = row_sum(square(a));                       // [N,1]
  const VarPtr c_sq = transpose(row_sum(square(centroids)));    // [1,K]
  const VarPtr cross = matmul_nt(a, centroids);                 // [N,K]
  return add(add(x_sq, c_sq), mul_scalar(cross, -2.0f));
}

}  // namespace calibre::ag
