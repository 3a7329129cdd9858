// Tests for the nn substrate. The load-bearing tests are finite-difference
// gradient checks: they validate every layer's backward pass and, by
// extension, the flat gradient vector the whole sparsification stack consumes.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/maxpool.h"
#include "nn/models.h"
#include "nn/relu.h"
#include "nn/sequential.h"
#include "util/rng.h"

namespace fedsparse::nn {
namespace {

Matrix random_batch(std::size_t batch, std::size_t features, util::Rng& rng, double scale = 1.0) {
  Matrix x(batch, features);
  for (auto& v : x.flat()) v = static_cast<float>(rng.normal(0.0, scale));
  return x;
}

std::vector<int> random_labels(std::size_t batch, std::size_t classes, util::Rng& rng) {
  std::vector<int> y(batch);
  for (auto& v : y) v = static_cast<int>(rng.uniform_u64(classes));
  return y;
}

// Central-difference check of d(loss)/d(weights) against the analytic grad.
// Checks a subsample of coordinates to keep runtime reasonable.
void check_weight_gradients(Sequential& model, const Matrix& x, const std::vector<int>& y,
                            double tol, std::size_t max_coords = 60) {
  model.zero_grad();
  model.forward_loss_grad(x, y);
  std::vector<float> analytic(model.grad().begin(), model.grad().end());

  auto w = model.weights();
  util::Rng pick(12345);
  const std::size_t d = w.size();
  const std::size_t n_checks = std::min(max_coords, d);
  const float eps = 1e-3f;
  for (std::size_t c = 0; c < n_checks; ++c) {
    const std::size_t j = n_checks == d ? c : pick.uniform_u64(d);
    const float saved = w[j];
    w[j] = saved + eps;
    const double lp = model.forward_loss(x, y);
    w[j] = saved - eps;
    const double lm = model.forward_loss(x, y);
    w[j] = saved;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic[j], numeric, tol) << "coordinate " << j;
  }
}

// Gradient w.r.t. the *input*, via Sequential with a single layer.
void check_input_gradients(Sequential& model, Matrix x, const std::vector<int>& y, double tol) {
  model.zero_grad();
  // Analytic input grad: run forward/backward manually through predict-like
  // path is not exposed; instead perturb inputs and compare to loss change
  // predicted by a full-batch re-evaluation (weak but layer-independent).
  const double base = model.forward_loss(x, y);
  (void)base;
  // Directional derivative check: random direction v, compare
  // (L(x+εv) − L(x−εv)) / 2ε against itself at two ε values (Richardson):
  util::Rng rng(77);
  Matrix v(x.rows(), x.cols());
  for (auto& e : v.flat()) e = static_cast<float>(rng.normal());
  auto eval_at = [&](float eps) {
    Matrix xp = x;
    for (std::size_t i = 0; i < xp.size(); ++i) xp.data()[i] += eps * v.data()[i];
    return model.forward_loss(xp, y);
  };
  const double d1 = (eval_at(1e-3f) - eval_at(-1e-3f)) / 2e-3;
  const double d2 = (eval_at(5e-4f) - eval_at(-5e-4f)) / 1e-3;
  EXPECT_NEAR(d1, d2, tol);  // consistency across step sizes => smoothness
}

// ----------------------------------------------------------- loss ----------

TEST(SoftmaxCrossEntropy, MatchesHandComputedValue) {
  Matrix logits(1, 3);
  logits.at(0, 0) = 1.0f;
  logits.at(0, 1) = 2.0f;
  logits.at(0, 2) = 3.0f;
  const std::vector<int> y{2};
  const double lse = std::log(std::exp(1.0) + std::exp(2.0) + std::exp(3.0));
  EXPECT_NEAR(SoftmaxCrossEntropy::loss_only(logits, y), lse - 3.0, 1e-9);
}

TEST(SoftmaxCrossEntropy, GradientIsSoftmaxMinusOnehot) {
  Matrix logits(2, 3);
  util::Rng rng(1);
  for (auto& v : logits.flat()) v = static_cast<float>(rng.normal());
  const std::vector<int> y{0, 2};
  Matrix dlogits;
  SoftmaxCrossEntropy::loss_and_grad(logits, y, dlogits);
  Matrix sm = logits;
  SoftmaxCrossEntropy::softmax_rows(sm);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      const double expected = (sm.at(r, c) - (static_cast<int>(c) == y[r] ? 1.0 : 0.0)) / 2.0;
      EXPECT_NEAR(dlogits.at(r, c), expected, 1e-6);
    }
  }
}

TEST(SoftmaxCrossEntropy, NumericallyStableForHugeLogits) {
  Matrix logits(1, 2);
  logits.at(0, 0) = 1000.0f;
  logits.at(0, 1) = -1000.0f;
  const std::vector<int> y{0};
  const double loss = SoftmaxCrossEntropy::loss_only(logits, y);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-6);
}

TEST(SoftmaxCrossEntropy, RejectsBadLabels) {
  Matrix logits(1, 3);
  EXPECT_THROW(SoftmaxCrossEntropy::loss_only(logits, std::vector<int>{5}),
               std::invalid_argument);
  EXPECT_THROW(SoftmaxCrossEntropy::loss_only(logits, std::vector<int>{-1}),
               std::invalid_argument);
  EXPECT_THROW(SoftmaxCrossEntropy::loss_only(logits, std::vector<int>{0, 0}),
               std::invalid_argument);
}

// -------------------------------------------------- gradient checks --------

TEST(GradientCheck, LinearLayer) {
  util::Rng rng(2);
  Sequential model(8);
  model.add(std::make_unique<Linear>(8, 5));
  model.finalize(rng);
  const Matrix x = random_batch(4, 8, rng);
  check_weight_gradients(model, x, random_labels(4, 5, rng), 2e-3, model.dim());
}

TEST(GradientCheck, MlpTwoHidden) {
  util::Rng rng(3);
  auto model = mlp(10, {16, 12}, 4)(rng);
  const Matrix x = random_batch(6, 10, rng);
  check_weight_gradients(*model, x, random_labels(6, 4, rng), 2e-3);
}

TEST(GradientCheck, ConvLayer) {
  util::Rng rng(4);
  Sequential model(1 * 6 * 6);
  model.add(std::make_unique<Conv2d>(1, 6, 6, 3, 3, 1, 1));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Linear>(3 * 6 * 6, 4));
  model.finalize(rng);
  const Matrix x = random_batch(3, 36, rng);
  check_weight_gradients(model, x, random_labels(3, 4, rng), 3e-3);
}

TEST(GradientCheck, ConvWithStrideAndNoPad) {
  util::Rng rng(5);
  Sequential model(2 * 7 * 7);
  model.add(std::make_unique<Conv2d>(2, 7, 7, 4, 3, 2, 0));  // out 3x3
  model.add(std::make_unique<Linear>(4 * 3 * 3, 3));
  model.finalize(rng);
  const Matrix x = random_batch(2, 2 * 49, rng);
  check_weight_gradients(model, x, random_labels(2, 3, rng), 3e-3);
}

TEST(GradientCheck, MaxPoolPath) {
  util::Rng rng(6);
  Sequential model(1 * 8 * 8);
  model.add(std::make_unique<Conv2d>(1, 8, 8, 2, 3, 1, 1));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<MaxPool2d>(2, 8, 8, 2));
  model.add(std::make_unique<Linear>(2 * 4 * 4, 3));
  model.finalize(rng);
  const Matrix x = random_batch(3, 64, rng);
  check_weight_gradients(model, x, random_labels(3, 3, rng), 3e-3);
}

TEST(GradientCheck, FullCnnTiny) {
  util::Rng rng(7);
  auto model = cnn(1, 8, 8, 2, 3, 8, 4)(rng);
  const Matrix x = random_batch(2, 64, rng);
  check_weight_gradients(*model, x, random_labels(2, 4, rng), 4e-3);
}

TEST(GradientCheck, InputSmoothness) {
  util::Rng rng(8);
  auto model = mlp(6, {8}, 3)(rng);
  const Matrix x = random_batch(4, 6, rng);
  check_input_gradients(*model, x, random_labels(4, 3, rng), 1e-3);
}

// ------------------------------------- GEMM-routed layer equivalence -------
//
// The layers now run their math through the tiled gemm_nt/gemm_tn/gemm_nn
// kernels; these tests pin them against the seed scalar loops (per-row dot
// products / per-channel column sweeps) at atol 1e-4 — the kernels only
// differ in float summation order.

TEST(LinearLayer, GemmPathMatchesScalarReference) {
  util::Rng rng(41);
  const std::size_t batch = 7, in = 33, out = 9;
  Linear layer(in, out);
  std::vector<float> weights(layer.param_count()), grads(layer.param_count(), 0.0f);
  layer.bind({weights.data(), weights.size()}, {grads.data(), grads.size()});
  layer.init_params(rng);
  const Matrix x = random_batch(batch, in, rng);
  Matrix dy = random_batch(batch, out, rng);

  Matrix y, dx;
  layer.forward(x, y);
  layer.backward(dy, dx);

  // Scalar reference: y = xWᵀ + b; dW += dyᵀx; db += colsum dy; dx = dyW.
  const float* w = weights.data();
  const float* b = weights.data() + in * out;
  std::vector<float> gw_ref(in * out, 0.0f), gb_ref(out, 0.0f);
  for (std::size_t r = 0; r < batch; ++r) {
    for (std::size_t o = 0; o < out; ++o) {
      double acc = b[o];
      for (std::size_t i = 0; i < in; ++i) acc += double(x.at(r, i)) * w[o * in + i];
      EXPECT_NEAR(y.at(r, o), acc, 1e-4) << "y(" << r << "," << o << ")";
      const float d = dy.at(r, o);
      gb_ref[o] += d;
      for (std::size_t i = 0; i < in; ++i) gw_ref[o * in + i] += d * x.at(r, i);
    }
    for (std::size_t i = 0; i < in; ++i) {
      double acc = 0.0;
      for (std::size_t o = 0; o < out; ++o) acc += double(dy.at(r, o)) * w[o * in + i];
      EXPECT_NEAR(dx.at(r, i), acc, 1e-4) << "dx(" << r << "," << i << ")";
    }
  }
  for (std::size_t j = 0; j < in * out; ++j) EXPECT_NEAR(grads[j], gw_ref[j], 1e-4) << "gw " << j;
  for (std::size_t o = 0; o < out; ++o) EXPECT_NEAR(grads[in * out + o], gb_ref[o], 1e-4);
}

TEST(Conv2dLayer, GemmPathMatchesDirectConvolution) {
  util::Rng rng(43);
  const std::size_t ch = 2, h = 9, wd = 9, out_ch = 3, ks = 3, stride = 1, pad = 1;
  const std::size_t batch = 3;
  Conv2d layer(ch, h, wd, out_ch, ks, stride, pad);
  std::vector<float> weights(layer.param_count()), grads(layer.param_count(), 0.0f);
  layer.bind({weights.data(), weights.size()}, {grads.data(), grads.size()});
  layer.init_params(rng);
  const auto& g = layer.geometry();
  const std::size_t oh = g.out_height(), ow = g.out_width();
  const Matrix x = random_batch(batch, ch * h * wd, rng);
  Matrix y;
  layer.forward(x, y);

  // Direct (non-im2col, non-GEMM) convolution as the ground truth.
  const float* w = weights.data();
  const float* bias = weights.data() + out_ch * g.col_rows();
  for (std::size_t s = 0; s < batch; ++s) {
    for (std::size_t o = 0; o < out_ch; ++o) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          double acc = bias[o];
          for (std::size_t c = 0; c < ch; ++c) {
            for (std::size_t ky = 0; ky < ks; ++ky) {
              for (std::size_t kx = 0; kx < ks; ++kx) {
                const long iy = long(oy * stride + ky) - long(pad);
                const long ix = long(ox * stride + kx) - long(pad);
                if (iy < 0 || iy >= long(h) || ix < 0 || ix >= long(wd)) continue;
                acc += double(x.at(s, (c * h + std::size_t(iy)) * wd + std::size_t(ix))) *
                       w[((o * ch + c) * ks + ky) * ks + kx];
              }
            }
          }
          EXPECT_NEAR(y.at(s, (o * oh + oy) * ow + ox), acc, 1e-4)
              << "sample " << s << " chan " << o << " at (" << oy << "," << ox << ")";
        }
      }
    }
  }
}

TEST(Conv2dLayer, InferenceForwardSkipsColumnCacheButMatchesTraining) {
  // set_grad_enabled(false) must produce identical outputs while refusing a
  // subsequent multi-sample backward (no per-sample columns were kept).
  util::Rng rng(44);
  const std::size_t batch = 4;
  Conv2d layer(1, 6, 6, 2, 3);
  std::vector<float> weights(layer.param_count()), grads(layer.param_count(), 0.0f);
  layer.bind({weights.data(), weights.size()}, {grads.data(), grads.size()});
  layer.init_params(rng);
  const Matrix x = random_batch(batch, 36, rng);
  Matrix y_train, y_eval;
  layer.forward(x, y_train);
  layer.set_grad_enabled(false);
  layer.forward(x, y_eval);
  for (std::size_t i = 0; i < y_train.size(); ++i) {
    EXPECT_EQ(y_train.data()[i], y_eval.data()[i]) << "flat " << i;
  }
  Matrix dy(batch, y_train.cols(), 1.0f), dx;
  EXPECT_THROW(layer.backward(dy, dx), std::logic_error);
  layer.set_grad_enabled(true);
  layer.forward(x, y_train);
  EXPECT_NO_THROW(layer.backward(dy, dx));
}

TEST(LinearLayer, InferenceForwardSkipsInputCache) {
  util::Rng rng(45);
  Linear layer(5, 3);
  std::vector<float> weights(layer.param_count()), grads(layer.param_count(), 0.0f);
  layer.bind({weights.data(), weights.size()}, {grads.data(), grads.size()});
  layer.init_params(rng);
  const Matrix x = random_batch(2, 5, rng);
  Matrix y;
  layer.set_grad_enabled(false);
  layer.forward(x, y);
  Matrix dy(2, 3, 1.0f), dx;
  EXPECT_THROW(layer.backward(dy, dx), std::logic_error);
  layer.set_grad_enabled(true);
  layer.forward(x, y);
  EXPECT_NO_THROW(layer.backward(dy, dx));
}

TEST(ReLULayer, ForwardBackwardMask) {
  ReLU relu;
  Matrix x(1, 4);
  x.at(0, 0) = -1.0f;
  x.at(0, 1) = 2.0f;
  x.at(0, 2) = 0.0f;
  x.at(0, 3) = 3.0f;
  Matrix y;
  relu.forward(x, y);
  EXPECT_FLOAT_EQ(y.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 2.0f);
  EXPECT_FLOAT_EQ(y.at(0, 2), 0.0f);
  Matrix dy(1, 4, 1.0f), dx;
  relu.backward(dy, dx);
  EXPECT_FLOAT_EQ(dx.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 1), 1.0f);
  EXPECT_FLOAT_EQ(dx.at(0, 2), 0.0f);  // subgradient 0 at exactly 0
}

// Bitwise check of the vectorized loops against the scalar definition:
// y = x > 0 ? x : +0, dx = x > 0 ? dy : +0. Sizes 7, 17 and 512 leave vector
// tails; the last size re-runs a smaller input on the grown mask.
TEST(ReLULayer, MatchesScalarReferenceBitwise) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials = {-0.0f,    0.0f,        nan,       -nan,    inf,
                                       -inf,     denorm,      -denorm,   FLT_MIN / 4,
                                       FLT_MAX,  -FLT_MAX,    1.0f,      -1.0f};
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  ReLU relu;
  util::Rng rng(11);
  std::size_t negative_zero_through_active = 0;
  for (const std::size_t n : {1u, 7u, 8u, 17u, 512u, 7u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    Matrix x(1, n), dy(1, n), y, dx;
    for (std::size_t i = 0; i < n; ++i) {
      // Specials at every other lane, so each lands in both vector body and
      // tail positions across the sizes.
      x.data()[i] = i % 2 == 0 ? specials[(i / 2) % specials.size()]
                               : static_cast<float>(rng.normal(0.0, 1.0));
      dy.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
      if (i % 3 == 0) dy.data()[i] = -0.0f;
    }
    if (n == 1) x.data()[0] = 2.0f;  // one active lane carrying a −0.0 gradient
    relu.forward(x, y);
    relu.backward(dy, dx);
    ASSERT_EQ(y.size(), n);
    ASSERT_EQ(dx.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const float xi = x.data()[i];
      const bool active = xi > 0.0f;
      EXPECT_EQ(bits(y.data()[i]), bits(active ? xi : 0.0f)) << "forward lane " << i;
      EXPECT_EQ(bits(dx.data()[i]), bits(active ? dy.data()[i] : 0.0f)) << "backward lane " << i;
      if (active && bits(dy.data()[i]) == bits(-0.0f)) ++negative_zero_through_active;
    }
  }
  EXPECT_GT(negative_zero_through_active, 0u);
}

TEST(MaxPoolLayer, SelectsMaxAndRoutesGradient) {
  MaxPool2d pool(1, 4, 4, 2);
  Matrix x(1, 16);
  for (std::size_t i = 0; i < 16; ++i) x.data()[i] = static_cast<float>(i);
  Matrix y;
  pool.forward(x, y);
  ASSERT_EQ(y.cols(), 4u);
  EXPECT_FLOAT_EQ(y.at(0, 0), 5.0f);   // max of {0,1,4,5}
  EXPECT_FLOAT_EQ(y.at(0, 3), 15.0f);  // max of {10,11,14,15}
  Matrix dy(1, 4, 1.0f), dx;
  pool.backward(dy, dx);
  EXPECT_FLOAT_EQ(dx.data()[5], 1.0f);
  EXPECT_FLOAT_EQ(dx.data()[0], 0.0f);
}

TEST(MaxPoolLayer, RejectsNonDivisibleWindow) {
  EXPECT_THROW(MaxPool2d(1, 5, 4, 2), std::invalid_argument);
}

TEST(LinearLayer, ValidatesInputDim) {
  util::Rng rng(9);
  Sequential model(4);
  model.add(std::make_unique<Linear>(5, 2));  // mismatched on purpose
  EXPECT_THROW(model.finalize(rng), std::invalid_argument);
}

// -------------------------------------------------------- sequential -------

TEST(Sequential, FlatParameterLayoutIsStable) {
  util::Rng rng(10);
  auto model = mlp(4, {3}, 2)(rng);
  EXPECT_EQ(model->dim(), 4u * 3 + 3 + 3 * 2 + 2);
  const float* before = model->weights().data();
  Matrix x = random_batch(2, 4, rng);
  model->zero_grad();
  model->forward_loss_grad(x, random_labels(2, 2, rng));
  EXPECT_EQ(model->weights().data(), before);  // storage never moves
}

TEST(Sequential, SetWeightsRoundTrip) {
  util::Rng rng(11);
  auto a = mlp(4, {5}, 3)(rng);
  auto b = mlp(4, {5}, 3)(rng);
  b->set_weights(a->weights());
  const Matrix x = random_batch(3, 4, rng);
  const auto y = random_labels(3, 3, rng);
  EXPECT_DOUBLE_EQ(a->forward_loss(x, y), b->forward_loss(x, y));
  std::vector<float> wrong(3, 0.0f);
  EXPECT_THROW(b->set_weights({wrong.data(), wrong.size()}), std::invalid_argument);
}

TEST(Sequential, SgdStepDecreasesLossOnAverage) {
  util::Rng rng(12);
  auto model = mlp(6, {8}, 3)(rng);
  const Matrix x = random_batch(16, 6, rng);
  const auto y = random_labels(16, 3, rng);
  const double before = model->forward_loss(x, y);
  for (int i = 0; i < 20; ++i) {
    model->zero_grad();
    model->forward_loss_grad(x, y);
    model->sgd_step(0.1f);
  }
  EXPECT_LT(model->forward_loss(x, y), before);
}

TEST(Sequential, AccuracyComputation) {
  util::Rng rng(13);
  Sequential model(2);
  model.add(std::make_unique<Linear>(2, 2));
  model.finalize(rng);
  // Force weights: class = argmax(x) by identity weights.
  auto w = model.weights();
  w[0] = 1.0f;
  w[1] = 0.0f;
  w[2] = 0.0f;
  w[3] = 1.0f;
  w[4] = 0.0f;
  w[5] = 0.0f;
  Matrix x(2, 2);
  x.at(0, 0) = 3.0f;
  x.at(0, 1) = 1.0f;
  x.at(1, 0) = 0.0f;
  x.at(1, 1) = 2.0f;
  EXPECT_DOUBLE_EQ(model.accuracy(x, std::vector<int>{0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(model.accuracy(x, std::vector<int>{1, 0}), 0.0);
}

TEST(Sequential, LifecycleErrors) {
  util::Rng rng(14);
  Sequential model(3);
  EXPECT_THROW(model.finalize(rng), std::logic_error);  // no layers
  model.add(std::make_unique<Linear>(3, 2));
  Matrix x(1, 3);
  EXPECT_THROW(model.forward_loss(x, std::vector<int>{0}), std::logic_error);  // not finalized
  model.finalize(rng);
  EXPECT_THROW(model.add(std::make_unique<ReLU>()), std::logic_error);
  EXPECT_THROW(model.finalize(rng), std::logic_error);
  Matrix wrong(1, 5);
  EXPECT_THROW(model.forward_loss(wrong, std::vector<int>{0}), std::invalid_argument);
}

// ------------------------------------------------------------ models -------

TEST(Models, FactoriesProduceExpectedGeometry) {
  util::Rng rng(15);
  auto femnist = cnn_femnist(1.0)(rng);
  EXPECT_EQ(femnist->in_features(), 28u * 28);
  EXPECT_EQ(femnist->num_classes(), 62u);
  EXPECT_GT(femnist->dim(), 400000u);  // the paper's D > 400,000

  auto cifar = cnn_cifar(0.25)(rng);
  EXPECT_EQ(cifar->in_features(), 3u * 32 * 32);
  EXPECT_EQ(cifar->num_classes(), 10u);

  auto lg = logistic(10, 3)(rng);
  EXPECT_EQ(lg->dim(), 33u);
}

TEST(Models, MakeModelDispatchesAndValidates) {
  util::Rng rng(16);
  EXPECT_EQ(make_model("mlp", 1, 4, 4, 5, 8)(rng)->num_classes(), 5u);
  EXPECT_EQ(make_model("logistic", 1, 4, 4, 5)(rng)->dim(), 16u * 5 + 5);
  EXPECT_THROW(make_model("transformer", 1, 4, 4, 5), std::invalid_argument);
  EXPECT_THROW(cnn_femnist(0.0), std::invalid_argument);
  EXPECT_THROW(cnn_femnist(1.5), std::invalid_argument);
}

TEST(Models, SameSeedSameInit) {
  util::Rng a(17), b(17);
  auto m1 = mlp(5, {4}, 3)(a);
  auto m2 = mlp(5, {4}, 3)(b);
  for (std::size_t i = 0; i < m1->dim(); ++i) {
    EXPECT_FLOAT_EQ(m1->weights()[i], m2->weights()[i]);
  }
}

// Forwards every call to the wrapped layer but keeps Layer's default
// backward_params, so a model built from these also computes its first
// layer's input gradient.
class FullBackward final : public Layer {
 public:
  explicit FullBackward(std::unique_ptr<Layer> inner) : inner_(std::move(inner)) {}
  std::size_t param_count() const noexcept override { return inner_->param_count(); }
  void bind(std::span<float> w, std::span<float> g) override { inner_->bind(w, g); }
  void init_params(util::Rng& rng) override { inner_->init_params(rng); }
  std::size_t out_features(std::size_t in) const override { return inner_->out_features(in); }
  void set_grad_enabled(bool enabled) override { inner_->set_grad_enabled(enabled); }
  void forward(const Matrix& x, Matrix& y) override { inner_->forward(x, y); }
  void backward(const Matrix& dy, Matrix& dx) override { inner_->backward(dy, dx); }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<Layer> inner_;
};

// Linear and Conv2d skip the first layer's dx; the parameter gradients must
// come out bit for bit as with the full backward pass.
TEST(Sequential, FirstLayerSkipsOnlyTheInputGradient) {
  const auto build = [](bool conv_first, bool full) {
    auto model = std::make_unique<Sequential>(64);
    const auto add = [&](std::unique_ptr<Layer> layer) {
      model->add(full ? std::make_unique<FullBackward>(std::move(layer)) : std::move(layer));
    };
    if (conv_first) {
      add(std::make_unique<Conv2d>(1, 8, 8, 3, 3, 1, 1));
      add(std::make_unique<ReLU>());
      add(std::make_unique<Linear>(3 * 64, 5));
    } else {
      add(std::make_unique<Linear>(64, 16));
      add(std::make_unique<ReLU>());
      add(std::make_unique<Linear>(16, 5));
    }
    util::Rng rng(29);
    model->finalize(rng);
    return model;
  };
  for (const bool conv_first : {false, true}) {
    const auto skip = build(conv_first, false);
    const auto full = build(conv_first, true);
    util::Rng rng(31);
    const Matrix x = random_batch(6, 64, rng);
    const std::vector<int> y = random_labels(6, 5, rng);
    for (Sequential* m : {skip.get(), full.get()}) {
      m->zero_grad();
      m->forward_loss_grad(x, y);
    }
    ASSERT_EQ(skip->grad().size(), full->grad().size());
    EXPECT_EQ(std::memcmp(skip->grad().data(), full->grad().data(), skip->grad().size_bytes()), 0)
        << (conv_first ? "conv" : "linear") << " first";
  }
}

// ------------------------------------------------- external weight binding --

TEST(Sequential, BindWeightsRebindsTheWholeParameterChain) {
  // Two models, same init; one is rebound to an external copy of the other's
  // weights. Every forward/backward result must be bitwise identical — the
  // contract the shared-replica round engine relies on.
  util::Rng a(21), b(21);
  auto owned = mlp(6, {5}, 3)(a);
  auto bound = mlp(6, {5}, 3)(b);
  std::vector<float> store(owned->weights().begin(), owned->weights().end());
  bound->bind_weights({store.data(), store.size()});
  EXPECT_TRUE(bound->weights_bound_externally());
  EXPECT_FALSE(owned->weights_bound_externally());
  EXPECT_EQ(bound->weights().data(), store.data());

  util::Rng data_rng(22);
  Matrix x(4, 6);
  for (auto& v : x.flat()) v = static_cast<float>(data_rng.normal());
  std::vector<int> y{0, 1, 2, 1};
  owned->zero_grad();
  bound->zero_grad();
  const double l1 = owned->forward_loss_grad(x, y);
  const double l2 = bound->forward_loss_grad(x, y);
  EXPECT_EQ(l1, l2);
  for (std::size_t i = 0; i < owned->dim(); ++i) {
    EXPECT_EQ(owned->grad()[i], bound->grad()[i]) << "grad " << i;
  }
  // sgd_step writes through to the external store, not a private copy.
  bound->sgd_step(0.1f);
  bool moved = false;
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store[i] != owned->weights()[i]) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(Sequential, BindWeightsValidatesAndRebindsCheaply) {
  util::Rng rng(23);
  auto model = mlp(4, {3}, 2)(rng);
  std::vector<float> small(model->dim() - 1, 0.0f);
  EXPECT_THROW(model->bind_weights({small.data(), small.size()}), std::invalid_argument);
  // Rebinding between two stores (the per-client path) keeps working.
  std::vector<float> s1(model->dim(), 0.5f), s2(model->dim(), -0.25f);
  model->bind_weights({s1.data(), s1.size()});
  EXPECT_EQ(model->weights().data(), s1.data());
  model->bind_weights({s2.data(), s2.size()});
  EXPECT_EQ(model->weights().data(), s2.data());
  model->bind_weights({s2.data(), s2.size()});  // idempotent
  EXPECT_EQ(model->weights().data(), s2.data());
  Sequential unfinalized(4);
  std::vector<float> any(1, 0.0f);
  EXPECT_THROW(unfinalized.bind_weights({any.data(), any.size()}), std::logic_error);
}

}  // namespace
}  // namespace fedsparse::nn
