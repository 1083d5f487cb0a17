// Tests for the NN layer: modules, networks, losses, optimizer, EMA and the
// serializable model state.
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/check.h"
#include "nn/losses.h"
#include "nn/networks.h"
#include "nn/optim.h"
#include "nn/state.h"

namespace calibre::nn {
namespace {

using tensor::Tensor;

rng::Generator make_gen(std::uint64_t seed = 42) {
  return rng::Generator(seed);
}

TEST(Linear, ShapesAndBias) {
  auto gen = make_gen();
  Linear layer(4, 3, gen);
  const ag::VarPtr out = layer.forward(ag::constant(Tensor::zeros(5, 4)));
  EXPECT_EQ(out->value.rows(), 5);
  EXPECT_EQ(out->value.cols(), 3);
  // Zero input -> output equals the bias row, repeated.
  for (std::int64_t r = 1; r < 5; ++r) {
    for (std::int64_t c = 0; c < 3; ++c) {
      EXPECT_FLOAT_EQ(out->value(r, c), out->value(0, c));
    }
  }
  EXPECT_EQ(layer.parameters().size(), 2u);
  Linear no_bias(4, 3, gen, /*bias=*/false);
  EXPECT_EQ(no_bias.parameters().size(), 1u);
}

TEST(Linear, RejectsWrongInputWidth) {
  auto gen = make_gen();
  Linear layer(4, 2, gen);
  EXPECT_THROW(layer.forward(ag::constant(Tensor::zeros(1, 5))), CheckError);
}

TEST(LayerNorm, NormalizesRows) {
  LayerNorm layer_norm(6);
  auto gen = make_gen(7);
  const Tensor x = Tensor::randn(4, 6, gen, 5.0f);
  const ag::VarPtr out = layer_norm.forward(ag::constant(x));
  // With gamma=1, beta=0 each output row has ~zero mean and ~unit variance.
  for (std::int64_t r = 0; r < 4; ++r) {
    double mean = 0.0;
    for (std::int64_t c = 0; c < 6; ++c) mean += out->value(r, c);
    mean /= 6.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    double variance = 0.0;
    for (std::int64_t c = 0; c < 6; ++c) {
      variance += (out->value(r, c) - mean) * (out->value(r, c) - mean);
    }
    EXPECT_NEAR(variance / 6.0, 1.0, 1e-2);
  }
}

TEST(Sequential, ChainsModules) {
  auto gen = make_gen();
  Sequential seq;
  seq.push_back(std::make_shared<Linear>(3, 5, gen));
  seq.push_back(std::make_shared<ReLU>());
  seq.push_back(std::make_shared<Linear>(5, 2, gen));
  const ag::VarPtr out = seq.forward(ag::constant(Tensor::zeros(2, 3)));
  EXPECT_EQ(out->value.cols(), 2);
  EXPECT_EQ(seq.parameters().size(), 4u);
}

TEST(MlpEncoder, ShapeAndParameterCount) {
  EncoderConfig config;
  config.input_dim = 10;
  config.hidden_dims = {16, 8};
  config.feature_dim = 4;
  auto gen = make_gen();
  MlpEncoder encoder(config, gen);
  EXPECT_EQ(encoder.feature_dim(), 4);
  const ag::VarPtr out = encoder.forward(ag::constant(Tensor::zeros(3, 10)));
  EXPECT_EQ(out->value.cols(), 4);
  // linear(10->16)+LN + linear(16->8)+LN + linear(8->4)
  EXPECT_EQ(encoder.parameter_count(),
            (10 * 16 + 16) + 2 * 16 + (16 * 8 + 8) + 2 * 8 + (8 * 4 + 4));
}

TEST(Networks, ProjectionHeadAndClassifier) {
  auto gen = make_gen();
  ProjectionHead head(8, 16, 6, gen);
  EXPECT_EQ(head.forward(ag::constant(Tensor::zeros(2, 8)))->value.cols(), 6);
  LinearClassifier classifier(6, 10, gen);
  EXPECT_EQ(classifier.num_classes(), 10);
  EXPECT_EQ(
      classifier.forward(ag::constant(Tensor::zeros(2, 6)))->value.cols(),
      10);
}

// --- losses -------------------------------------------------------------------

TEST(Losses, NtXentIsShiftAndScaleAware) {
  auto gen = make_gen(3);
  const Tensor h = Tensor::randn(8, 16, gen);
  const float loss = nn::ntxent(ag::constant(h), 0.5f)->value(0, 0);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0f);
  // Perfectly aligned pairs: loss is near its minimum (positives dominate).
  Tensor aligned(8, 4);
  for (int i = 0; i < 4; ++i) {
    aligned(i, i) = 1.0f;       // view 1
    aligned(i + 4, i) = 1.0f;   // view 2 = identical direction
  }
  const float aligned_loss =
      nn::ntxent(ag::constant(aligned), 0.5f)->value(0, 0);
  EXPECT_LT(aligned_loss, loss);
}

TEST(Losses, NtXentRequiresEvenBatch) {
  EXPECT_THROW(nn::ntxent(ag::constant(Tensor::zeros(5, 4)), 0.5f),
               CheckError);
  EXPECT_THROW(nn::ntxent(ag::constant(Tensor::zeros(2, 4)), 0.5f),
               CheckError);
}

TEST(Losses, NegativeCosineBounds) {
  auto gen = make_gen(4);
  const Tensor p = Tensor::randn(5, 8, gen);
  // Identical inputs: cosine = 1 -> loss = -1.
  const float self_loss =
      nn::negative_cosine(ag::constant(p), ag::constant(p))->value(0, 0);
  EXPECT_NEAR(self_loss, -1.0f, 1e-5f);
  // Opposite inputs: loss = +1.
  const float anti_loss = nn::negative_cosine(
      ag::constant(p), ag::constant(tensor::neg(p)))->value(0, 0);
  EXPECT_NEAR(anti_loss, 1.0f, 1e-5f);
}

TEST(Losses, InfoNcePrefersAlignedPositives) {
  auto gen = make_gen(5);
  const Tensor q = Tensor::randn(4, 8, gen);
  const Tensor negatives = Tensor::randn(16, 8, gen);
  const float aligned = nn::info_nce(ag::constant(q), ag::constant(q),
                                     negatives, 0.3f)->value(0, 0);
  const Tensor other = Tensor::randn(4, 8, gen);
  const float misaligned = nn::info_nce(ag::constant(q), ag::constant(other),
                                        negatives, 0.3f)->value(0, 0);
  EXPECT_LT(aligned, misaligned);
}

// --- optimizer -------------------------------------------------------------------

TEST(Sgd, ConvergesOnLeastSquares) {
  auto gen = make_gen(6);
  // Fit y = x W* with a single linear layer.
  const Tensor w_star = Tensor::randn(3, 2, gen);
  const Tensor x = Tensor::randn(64, 3, gen);
  const Tensor y = tensor::matmul(x, w_star);
  Linear layer(3, 2, gen);
  Sgd optimizer(layer.parameters(), {0.1f, 0.0f, 0.0f});
  float last = 1e9f;
  for (int step = 0; step < 200; ++step) {
    optimizer.zero_grad();
    const ag::VarPtr loss = ag::mse(layer.forward(ag::constant(x)), y);
    ag::backward(loss);
    optimizer.step();
    last = loss->value(0, 0);
  }
  EXPECT_LT(last, 1e-3f);
}

TEST(Sgd, MomentumAcceleratesFirstSteps) {
  // One parameter, constant gradient of 1: after two steps plain SGD moves
  // 2*lr, momentum SGD moves lr + lr*(1 + m).
  const float lr = 0.1f;
  const float m = 0.9f;
  auto make_param = [] {
    return ag::parameter(Tensor::zeros(1, 1));
  };
  const ag::VarPtr plain = make_param();
  const ag::VarPtr with_momentum = make_param();
  Sgd plain_opt({plain}, {lr, 0.0f, 0.0f});
  Sgd momentum_opt({with_momentum}, {lr, m, 0.0f});
  for (int step = 0; step < 2; ++step) {
    plain->zero_grad();
    plain->grad.fill(1.0f);
    plain_opt.step();
    with_momentum->zero_grad();
    with_momentum->grad.fill(1.0f);
    momentum_opt.step();
  }
  EXPECT_NEAR(plain->value(0, 0), -2 * lr, 1e-6f);
  EXPECT_NEAR(with_momentum->value(0, 0), -(lr + lr * (1 + m)), 1e-6f);
}

TEST(Sgd, WeightDecayShrinksParameters) {
  const ag::VarPtr p = ag::parameter(Tensor::full(1, 1, 1.0f));
  Sgd optimizer({p}, {0.1f, 0.0f, 0.5f});
  p->zero_grad();  // zero gradient: only decay acts
  optimizer.step();
  EXPECT_NEAR(p->value(0, 0), 1.0f - 0.1f * 0.5f, 1e-6f);
}

TEST(Sgd, SkipsParametersWithoutGradients) {
  const ag::VarPtr p = ag::parameter(Tensor::full(1, 1, 2.0f));
  p->grad = Tensor();  // no gradient buffer at all
  Sgd optimizer({p}, {0.1f, 0.0f, 0.0f});
  optimizer.step();
  EXPECT_FLOAT_EQ(p->value(0, 0), 2.0f);
}

// The five-pass step Sgd::step replaced, kept as its bitwise reference:
// copy the gradient, add the decay, scale the zero-initialised momentum
// buffer and add the gradient to it, apply.
void five_pass_step(const std::vector<ag::VarPtr>& params,
                    const SgdConfig& config, std::vector<Tensor>& buffers) {
  for (std::size_t i = 0; i < params.size(); ++i) {
    const ag::VarPtr& p = params[i];
    if (p->grad.size() == 0) continue;
    Tensor g = p->grad;
    if (config.weight_decay != 0.0f) g.axpy_(config.weight_decay, p->value);
    if (config.momentum != 0.0f) {
      buffers[i].scale_(config.momentum);
      buffers[i].add_(g);
      p->value.axpy_(-config.learning_rate, buffers[i]);
    } else {
      p->value.axpy_(-config.learning_rate, g);
    }
  }
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(float)) == 0;
}

// Normal draws with every special value a step can meet planted from
// position `at` on: ±0, subnormals, ±inf, NaN and the float extremes.
Tensor with_specials(std::int64_t rows, std::int64_t cols, std::int64_t at,
                     rng::Generator& gen) {
  Tensor t = Tensor::randn(rows, cols, gen);
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -1e-41f,
                            inf,
                            -inf,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::min(),
                            -std::numeric_limits<float>::max()};
  for (std::int64_t k = 0; k < 9; ++k) {
    t.data()[(at + 3 * k) % t.size()] = specials[k];
  }
  return t;
}

TEST(Sgd, OnePassStepMatchesFivePassBitForBit) {
  for (const float m : {0.0f, 0.9f}) {
    for (const float wd : {0.0f, 1e-4f}) {
      SCOPED_TRACE(testing::Message() << "momentum " << m << " decay " << wd);
      const SgdConfig config{0.05f, m, wd};
      auto gen = make_gen(7);
      const Tensor init_a = with_specials(16, 33, 0, gen);
      const Tensor init_b = with_specials(1, 40, 5, gen);
      const std::vector<ag::VarPtr> params = {ag::parameter(init_a),
                                              ag::parameter(init_b)};
      const std::vector<ag::VarPtr> reference = {ag::parameter(init_a),
                                                 ag::parameter(init_b)};
      Sgd one_pass(params, config);
      std::vector<Tensor> buffers;
      for (const ag::VarPtr& p : reference) {
        buffers.push_back(Tensor::zeros(p->value.rows(), p->value.cols()));
      }
      for (int step = 0; step < 3; ++step) {
        const Tensor grad_a = with_specials(16, 33, 1 + step, gen);
        // The second parameter has no gradient on the first step, so its
        // momentum buffer starts on the second.
        const Tensor grad_b =
            step == 0 ? Tensor() : with_specials(1, 40, 2 * step, gen);
        params[0]->grad = grad_a;
        reference[0]->grad = grad_a;
        params[1]->grad = grad_b;
        reference[1]->grad = grad_b;
        one_pass.step();
        five_pass_step(reference, config, buffers);
        for (std::size_t i = 0; i < params.size(); ++i) {
          SCOPED_TRACE(testing::Message() << "step " << step << " param " << i);
          EXPECT_TRUE(same_bits(params[i]->value, reference[i]->value));
          const Tensor& buffer = one_pass.momentum_buffer(i);
          if (m == 0.0f || (i == 1 && step == 0)) {
            EXPECT_EQ(buffer.size(), 0);
          } else {
            EXPECT_TRUE(same_bits(buffer, buffers[i]));
          }
        }
      }
    }
  }
}

// --- EMA / copy ---------------------------------------------------------------------

TEST(Ema, MovesTargetTowardOnline) {
  const ag::VarPtr target = ag::parameter(Tensor::zeros(2, 2));
  const ag::VarPtr online = ag::parameter(Tensor::full(2, 2, 1.0f));
  ema_update({target}, {online}, 0.9f);
  EXPECT_NEAR(target->value(0, 0), 0.1f, 1e-6f);
  ema_update({target}, {online}, 0.9f);
  EXPECT_NEAR(target->value(0, 0), 0.19f, 1e-6f);
}

TEST(Ema, CopyParameters) {
  const ag::VarPtr dst = ag::parameter(Tensor::zeros(2, 3));
  auto gen = make_gen(8);
  const ag::VarPtr src = ag::parameter(Tensor::randn(2, 3, gen));
  copy_parameters({dst}, {src});
  EXPECT_TRUE(tensor::allclose(dst->value, src->value));
  EXPECT_THROW(copy_parameters({dst}, {ag::parameter(Tensor::zeros(3, 2))}),
               CheckError);
}

// --- model state ------------------------------------------------------------------------

TEST(ModelState, RoundTripThroughParameters) {
  EncoderConfig config;
  config.input_dim = 6;
  config.hidden_dims = {8};
  config.feature_dim = 4;
  auto gen = make_gen(9);
  MlpEncoder a(config, gen);
  MlpEncoder b(config, gen);  // different init
  const ModelState state = ModelState::from_parameters(a.parameters());
  EXPECT_EQ(static_cast<std::int64_t>(state.size()), a.parameter_count());
  state.apply_to(b.parameters());
  const Tensor x = Tensor::randn(3, 6, gen);
  EXPECT_TRUE(tensor::allclose(a.forward(ag::constant(x))->value,
                               b.forward(ag::constant(x))->value));
}

TEST(ModelState, ApplySizeMismatchThrows) {
  auto gen = make_gen(10);
  Linear small(2, 2, gen);
  Linear big(4, 4, gen);
  const ModelState state = ModelState::from_parameters(small.parameters());
  EXPECT_THROW(state.apply_to(big.parameters()), CheckError);
}

TEST(ModelState, Algebra) {
  ModelState a(std::vector<float>{1.0f, 2.0f});
  const ModelState b(std::vector<float>{3.0f, 4.0f});
  a.add_scaled(b, 2.0f);
  EXPECT_FLOAT_EQ(a.values()[0], 7.0f);
  a.scale(0.5f);
  EXPECT_FLOAT_EQ(a.values()[1], 5.0f);
  ModelState c(std::vector<float>{0.0f, 0.0f});
  c.ema_merge(b, 0.25f);  // 0.25*c + 0.75*b
  EXPECT_FLOAT_EQ(c.values()[0], 2.25f);
  EXPECT_FLOAT_EQ(ModelState(std::vector<float>{3.0f, 4.0f}).norm(), 5.0f);
  EXPECT_FLOAT_EQ(
      ModelState(std::vector<float>{0.0f, 0.0f}).l2_distance(b), 5.0f);
}

TEST(ModelState, WireFormatRoundTrip) {
  auto gen = make_gen(11);
  const Tensor values = Tensor::randn(1, 257, gen);
  const ModelState original(values.to_vector());
  const auto bytes = original.to_bytes();
  const ModelState decoded = ModelState::from_bytes(bytes);
  EXPECT_EQ(decoded.values(), original.values());
}

TEST(ModelState, WireFormatRejectsCorruption) {
  const ModelState original(std::vector<float>{1.0f, 2.0f});
  auto bytes = original.to_bytes();
  bytes[0] ^= 0xFF;  // corrupt magic
  EXPECT_THROW(ModelState::from_bytes(bytes), CheckError);
  auto truncated = original.to_bytes();
  truncated.pop_back();
  EXPECT_THROW(ModelState::from_bytes(truncated), CheckError);
  EXPECT_THROW(ModelState::from_bytes({0x01, 0x02}), CheckError);
}

}  // namespace
}  // namespace calibre::nn
