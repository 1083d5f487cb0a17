// Numeric gradient checks for every autograd primitive and composite.
//
// Strategy: build a scalar loss from the op under test, compute analytic
// gradients via backward(), and compare against central finite differences.
// Since every loss in the library is composed from these primitives, these
// checks cover the gradient correctness of the whole stack.
#include <cmath>
#include <functional>
#include <thread>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/check.h"
#include "nn/losses.h"

namespace calibre {
namespace {

using ag::VarPtr;
using tensor::Tensor;

// Central-difference gradient of `loss_fn` w.r.t. `input`, checked against
// the analytic gradient produced by backward().
void check_gradient(Tensor input,
                    const std::function<VarPtr(const VarPtr&)>& loss_fn,
                    float tolerance = 2e-2f, float epsilon = 1e-2f) {
  const VarPtr leaf = ag::parameter(input);
  const VarPtr loss = loss_fn(leaf);
  ASSERT_EQ(loss->value.rows(), 1);
  ASSERT_EQ(loss->value.cols(), 1);
  ag::backward(loss);
  const Tensor analytic = leaf->grad;

  for (std::int64_t i = 0; i < input.size(); ++i) {
    const float saved = input.data()[i];
    input.data()[i] = saved + epsilon;
    const float up = loss_fn(ag::constant(input))->value(0, 0);
    input.data()[i] = saved - epsilon;
    const float down = loss_fn(ag::constant(input))->value(0, 0);
    input.data()[i] = saved;
    const float numeric = (up - down) / (2.0f * epsilon);
    EXPECT_NEAR(analytic.data()[i], numeric, tolerance)
        << "element " << i << " of " << input.shape_string();
  }
}

Tensor test_matrix(std::int64_t rows, std::int64_t cols,
                   std::uint64_t seed = 7) {
  rng::Generator gen(seed);
  return Tensor::randn(rows, cols, gen);
}

TEST(AutogradGradcheck, AddBroadcastRowVector) {
  const Tensor other = test_matrix(1, 4, 11);
  check_gradient(test_matrix(3, 4), [&](const VarPtr& x) {
    return ag::sum_all(ag::add(x, ag::constant(other)));
  });
}

TEST(AutogradGradcheck, AddBroadcastColVector) {
  const Tensor other = test_matrix(3, 1, 12);
  check_gradient(test_matrix(3, 4), [&](const VarPtr& x) {
    return ag::sum_all(ag::mul(ag::add(x, ag::constant(other)), x));
  });
}

TEST(AutogradGradcheck, BroadcastGradientFlowsToSmallSide) {
  // Gradient must reduce correctly onto the broadcast operand.
  const Tensor big = test_matrix(5, 3, 13);
  check_gradient(test_matrix(1, 3), [&](const VarPtr& x) {
    return ag::sum_all(ag::mul(ag::constant(big), x));
  });
}

TEST(AutogradGradcheck, SubMulDiv) {
  const Tensor other = tensor::add_scalar(test_matrix(3, 3, 14), 3.0f);
  check_gradient(test_matrix(3, 3), [&](const VarPtr& x) {
    const VarPtr d = ag::div(ag::sub(x, ag::constant(other)),
                             ag::constant(other));
    return ag::sum_all(ag::mul(d, d));
  });
}

TEST(AutogradGradcheck, DivByVariable) {
  Tensor denom = tensor::add_scalar(tensor::relu(test_matrix(3, 3, 15)), 1.0f);
  check_gradient(denom, [&](const VarPtr& x) {
    return ag::sum_all(ag::div(ag::constant(test_matrix(3, 3, 16)), x));
  });
}

TEST(AutogradGradcheck, MatmulBothSides) {
  const Tensor right = test_matrix(4, 2, 17);
  check_gradient(test_matrix(3, 4), [&](const VarPtr& x) {
    return ag::sum_all(ag::square(ag::matmul(x, ag::constant(right))));
  });
  const Tensor left = test_matrix(3, 4, 18);
  check_gradient(test_matrix(4, 2), [&](const VarPtr& x) {
    return ag::sum_all(ag::square(ag::matmul(ag::constant(left), x)));
  });
}

TEST(AutogradGradcheck, MatmulNTBothSides) {
  // C = A @ B^T: gradient w.r.t. both operands through the fused kernel.
  const Tensor right = test_matrix(2, 4, 46);
  check_gradient(test_matrix(3, 4), [&](const VarPtr& x) {
    return ag::sum_all(ag::square(ag::matmul_nt(x, ag::constant(right))));
  });
  const Tensor left = test_matrix(3, 4, 47);
  check_gradient(test_matrix(2, 4), [&](const VarPtr& x) {
    return ag::sum_all(ag::square(ag::matmul_nt(ag::constant(left), x)));
  });
}

TEST(AutogradGradcheck, MatmulTNBothSides) {
  // C = A^T @ B: gradient w.r.t. both operands through the fused kernel.
  const Tensor right = test_matrix(4, 2, 48);
  check_gradient(test_matrix(4, 3), [&](const VarPtr& x) {
    return ag::sum_all(ag::square(ag::matmul_tn(x, ag::constant(right))));
  });
  const Tensor left = test_matrix(4, 3, 49);
  check_gradient(test_matrix(4, 2), [&](const VarPtr& x) {
    return ag::sum_all(ag::square(ag::matmul_tn(ag::constant(left), x)));
  });
}

TEST(Autograd, FusedTransposeMatchesComposition) {
  // ag::matmul_nt / ag::matmul_tn must equal matmul-with-explicit-transpose
  // in both value and gradient.
  const Tensor a_v = test_matrix(3, 5, 50);
  const Tensor b_v = test_matrix(4, 5, 51);
  const VarPtr a1 = ag::parameter(a_v);
  const VarPtr b1 = ag::parameter(b_v);
  const VarPtr fused = ag::sum_all(ag::square(ag::matmul_nt(a1, b1)));
  ag::backward(fused);
  const VarPtr a2 = ag::parameter(a_v);
  const VarPtr b2 = ag::parameter(b_v);
  const VarPtr composed =
      ag::sum_all(ag::square(ag::matmul(a2, ag::transpose(b2))));
  ag::backward(composed);
  EXPECT_TRUE(tensor::allclose(fused->value, composed->value, 1e-5f));
  EXPECT_TRUE(tensor::allclose(a1->grad, a2->grad, 1e-4f));
  EXPECT_TRUE(tensor::allclose(b1->grad, b2->grad, 1e-4f));
}

TEST(AutogradGradcheck, Transpose) {
  check_gradient(test_matrix(3, 5), [&](const VarPtr& x) {
    return ag::sum_all(ag::square(ag::transpose(x)));
  });
}

TEST(AutogradGradcheck, UnaryExpLogSqrt) {
  Tensor positive = tensor::add_scalar(tensor::relu(test_matrix(3, 3, 19)),
                                       0.5f);
  check_gradient(positive, [&](const VarPtr& x) {
    return ag::sum_all(ag::log(x));
  });
  check_gradient(positive, [&](const VarPtr& x) {
    return ag::sum_all(ag::sqrt(x));
  }, 2e-2f, 5e-3f);
  check_gradient(test_matrix(3, 3, 20), [&](const VarPtr& x) {
    return ag::sum_all(ag::exp(ag::mul_scalar(x, 0.5f)));
  });
}

TEST(AutogradGradcheck, ReluAwayFromKink) {
  // Keep inputs away from 0 so finite differences are valid.
  Tensor input = test_matrix(4, 4, 22);
  for (auto& v : input.storage()) {
    if (std::fabs(v) < 0.1f) v = 0.5f;
  }
  check_gradient(input, [&](const VarPtr& x) {
    return ag::sum_all(ag::relu(x));
  });
}

TEST(AutogradGradcheck, RowColSums) {
  check_gradient(test_matrix(3, 4, 23), [&](const VarPtr& x) {
    return ag::sum_all(ag::square(ag::row_sum(x)));
  });
  check_gradient(test_matrix(3, 4, 24), [&](const VarPtr& x) {
    return ag::sum_all(ag::square(ag::col_sum(x)));
  });
}

TEST(AutogradGradcheck, GatherAndTakeRows) {
  check_gradient(test_matrix(4, 3, 25), [&](const VarPtr& x) {
    return ag::sum_all(ag::square(ag::gather_cols(x, {2, 0, 1, 2})));
  });
  check_gradient(test_matrix(4, 3, 26), [&](const VarPtr& x) {
    return ag::sum_all(ag::square(ag::take_rows(x, {1, 1, 3, 0})));
  });
}

TEST(AutogradGradcheck, ConcatAndSlice) {
  check_gradient(test_matrix(3, 4, 27), [&](const VarPtr& x) {
    const VarPtr both = ag::concat_rows({x, ag::mul_scalar(x, 2.0f)});
    return ag::sum_all(ag::square(ag::slice_rows(both, 1, 5)));
  });
  check_gradient(test_matrix(3, 2, 28), [&](const VarPtr& x) {
    return ag::sum_all(
        ag::square(ag::concat_cols({x, ag::square(x)})));
  });
}

TEST(AutogradGradcheck, LogSoftmaxAndCrossEntropy) {
  check_gradient(test_matrix(4, 5, 29), [&](const VarPtr& x) {
    return ag::sum_all(ag::square(ag::log_softmax(x)));
  });
  check_gradient(test_matrix(4, 5, 30), [&](const VarPtr& x) {
    return ag::cross_entropy(x, {0, 3, 2, 4});
  }, 1e-2f, 5e-3f);
}

TEST(AutogradGradcheck, CrossEntropySoft) {
  const Tensor targets = tensor::softmax_rows(test_matrix(4, 5, 31));
  check_gradient(test_matrix(4, 5, 32), [&](const VarPtr& x) {
    return ag::cross_entropy_soft(x, targets);
  }, 1e-2f, 5e-3f);
}

TEST(AutogradGradcheck, L2Normalize) {
  check_gradient(test_matrix(3, 4, 33), [&](const VarPtr& x) {
    return ag::sum_all(
        ag::square(ag::add_scalar(ag::l2_normalize(x), 1.0f)));
  }, 2e-2f, 5e-3f);
}

TEST(AutogradGradcheck, NtXentLoss) {
  check_gradient(test_matrix(8, 6, 38), [&](const VarPtr& x) {
    return nn::ntxent(x, 0.5f);
  }, 2e-2f, 5e-3f);
}

TEST(AutogradGradcheck, NegativeCosine) {
  const Tensor target = test_matrix(4, 6, 39);
  check_gradient(test_matrix(4, 6, 40), [&](const VarPtr& x) {
    return nn::negative_cosine(x, ag::constant(target));
  }, 2e-2f, 5e-3f);
}

TEST(AutogradGradcheck, InfoNce) {
  const Tensor key = test_matrix(4, 6, 41);
  const Tensor negatives = test_matrix(10, 6, 42);
  check_gradient(test_matrix(4, 6, 43), [&](const VarPtr& x) {
    return nn::info_nce(x, ag::constant(key), negatives, 0.3f);
  }, 2e-2f, 5e-3f);
}

TEST(AutogradGradcheck, MseLoss) {
  const Tensor target = test_matrix(3, 4, 44);
  check_gradient(test_matrix(3, 4, 45), [&](const VarPtr& x) {
    return ag::mse(x, target);
  });
}

TEST(Autograd, FanOutAccumulatesGradients) {
  const VarPtr x = ag::parameter(Tensor::full(2, 2, 3.0f));
  // y = x*x + x  =>  dy/dx = 2x + 1 = 7 per element; loss = sum.
  const VarPtr loss = ag::sum_all(ag::add(ag::mul(x, x), x));
  ag::backward(loss);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(x->grad.data()[i], 7.0f);
  }
}

TEST(Autograd, DetachBlocksGradient) {
  const VarPtr x = ag::parameter(Tensor::full(2, 2, 2.0f));
  const VarPtr loss = ag::sum_all(ag::mul(ag::detach(x), x));
  ag::backward(loss);
  // d/dx [c * x] = c = 2 (no second term from the detached branch).
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(x->grad.data()[i], 2.0f);
  }
}

TEST(Autograd, ConstantBranchesArePruned) {
  const VarPtr c = ag::constant(test_matrix(3, 3, 46));
  const VarPtr result = ag::mul(c, c);
  EXPECT_FALSE(result->requires_grad);
  EXPECT_TRUE(result->parents.empty());
}

TEST(Autograd, NoGradGuardBuildsNoTapeAndMatchesValuesBitwise) {
  const Tensor x = test_matrix(4, 5, 31);
  const Tensor w = test_matrix(5, 3, 32);
  auto forward = [&] {
    return ag::relu(ag::matmul(ag::parameter(x), ag::parameter(w)));
  };
  ASSERT_TRUE(ag::grad_enabled());
  const VarPtr tracked = forward();
  EXPECT_TRUE(tracked->requires_grad);
  EXPECT_FALSE(tracked->is_leaf());
  {
    const ag::NoGradGuard guard;
    EXPECT_FALSE(ag::grad_enabled());
    const VarPtr untracked = forward();
    // Same kernels, no tape: a plain value node even over parameters.
    EXPECT_FALSE(untracked->requires_grad);
    EXPECT_TRUE(untracked->is_leaf());
    EXPECT_FALSE(static_cast<bool>(untracked->backward_fn));
    ASSERT_EQ(untracked->value.size(), tracked->value.size());
    for (std::int64_t i = 0; i < tracked->value.size(); ++i) {
      EXPECT_EQ(untracked->value.data()[i], tracked->value.data()[i])
          << "element " << i << " drifted without the tape";
    }
  }
  // The guard restores the previous mode on scope exit (including nesting).
  EXPECT_TRUE(ag::grad_enabled());
  {
    const ag::NoGradGuard outer;
    {
      const ag::NoGradGuard inner;
      EXPECT_FALSE(ag::grad_enabled());
    }
    EXPECT_FALSE(ag::grad_enabled());
  }
  EXPECT_TRUE(ag::grad_enabled());
}

TEST(Autograd, NoGradModeIsPerThread) {
  const ag::NoGradGuard guard;
  bool other_thread_enabled = false;
  std::thread worker(
      [&other_thread_enabled] { other_thread_enabled = ag::grad_enabled(); });
  worker.join();
  EXPECT_TRUE(other_thread_enabled) << "grad mode leaked across threads";
  EXPECT_FALSE(ag::grad_enabled());
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  const VarPtr x = ag::parameter(test_matrix(2, 3, 47));
  EXPECT_THROW(ag::backward(ag::square(x)), CheckError);
}

}  // namespace
}  // namespace calibre
