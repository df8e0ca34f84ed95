// Tests for the from-scratch RL stack: matrix algebra, MLP backprop
// (finite-difference gradient check), optimizers, replay buffer and the DQN
// agent (including the Fig. 4 architecture's parameter footprint).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "io/bytes.hpp"
#include "rl/dqn.hpp"
#include "rl/matrix.hpp"
#include "rl/nn.hpp"
#include "rl/replay.hpp"

namespace ctj::rl {
namespace {

// --------------------------------------------------------------- matrix ----

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m.at(0, 1), -2.0);
}

TEST(Matrix, MatmulHandComputed) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  const Matrix c = matmul(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(Matrix, TransposedProductsMatchExplicit) {
  Rng rng(1);
  Matrix a = Matrix::he_normal(4, 3, rng);
  Matrix b = Matrix::he_normal(4, 5, rng);
  const Matrix atb = matmul_at_b(a, b);  // 3×5
  // Explicit transpose.
  Matrix at(3, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  const Matrix expected = matmul(at, b);
  for (std::size_t i = 0; i < atb.size(); ++i) {
    EXPECT_NEAR(atb.data()[i], expected.data()[i], 1e-12);
  }

  Matrix c = Matrix::he_normal(5, 3, rng);
  Matrix d = Matrix::he_normal(2, 3, rng);
  const Matrix cdt = matmul_a_bt(c, d);  // 5×2
  Matrix dt(3, 2);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) dt.at(j, i) = d.at(i, j);
  }
  const Matrix expected2 = matmul(c, dt);
  for (std::size_t i = 0; i < cdt.size(); ++i) {
    EXPECT_NEAR(cdt.data()[i], expected2.data()[i], 1e-12);
  }
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(matmul(a, b), CheckFailure);
}

namespace {

Matrix reference_matmul(const Matrix& a, const Matrix& b) {
  // Plain ikj triple loop with the same per-element k-accumulation order the
  // blocked kernel promises to preserve.
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a.at(i, k);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c.at(i, j) += aik * b.at(k, j);
      }
    }
  }
  return c;
}

Matrix random_dense(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

}  // namespace

TEST(Matrix, BlockedMatmulMatchesReference) {
  Rng rng(3);
  // Sizes straddling the blocking factors (32 in i, 128 in j), including
  // odd remainders and the shapes the Fig. 4 network actually multiplies.
  const std::size_t shapes[][3] = {
      {1, 24, 45}, {32, 45, 160}, {33, 7, 129}, {64, 64, 64}, {5, 200, 300}};
  for (const auto& s : shapes) {
    const Matrix a = random_dense(s[0], s[1], rng);
    const Matrix b = random_dense(s[1], s[2], rng);
    const Matrix expected = reference_matmul(a, b);
    Matrix c;
    matmul_into(c, a, b);
    ASSERT_EQ(c.rows(), expected.rows());
    ASSERT_EQ(c.cols(), expected.cols());
    for (std::size_t i = 0; i < c.size(); ++i) {
      // The kernel accumulates each element in the same k order as the
      // reference; the only admissible difference is the compiler
      // contracting mul+add in one loop but not the other, which is
      // bounded by ~1 ulp per term.
      const double tol =
          1e-12 * std::max(1.0, std::abs(expected.data()[i]));
      ASSERT_NEAR(c.data()[i], expected.data()[i], tol)
          << s[0] << "x" << s[1] << "x" << s[2] << " elem " << i;
    }
  }
}

TEST(Matrix, IntoVariantsReuseBuffersAndMatchAllocatingOnes) {
  Rng rng(4);
  const Matrix a = random_dense(6, 9, rng);
  const Matrix b = random_dense(9, 4, rng);
  Matrix c;
  matmul_into(c, a, b);
  const double* buffer = c.data();
  matmul_into(c, a, b);  // same shape: the allocation must be reused
  EXPECT_EQ(c.data(), buffer);
  const Matrix expected = matmul(a, b);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_EQ(c.data()[i], expected.data()[i]);
  }

  const Matrix x = random_dense(9, 6, rng);
  Matrix atb;
  matmul_at_b_into(atb, x, b);
  const Matrix atb_expected = matmul_at_b(x, b);
  for (std::size_t i = 0; i < atb.size(); ++i) {
    EXPECT_EQ(atb.data()[i], atb_expected.data()[i]);
  }

  const Matrix y = random_dense(4, 9, rng);
  Matrix abt;
  matmul_a_bt_into(abt, a, y);
  const Matrix abt_expected = matmul_a_bt(a, y);
  for (std::size_t i = 0; i < abt.size(); ++i) {
    EXPECT_EQ(abt.data()[i], abt_expected.data()[i]);
  }
}

TEST(Matrix, AtBAccAccumulatesOnTopOfExisting) {
  Rng rng(5);
  const Matrix a = random_dense(7, 3, rng);
  const Matrix b = random_dense(7, 5, rng);
  Matrix acc(3, 5, 1.0);
  matmul_at_b_acc(acc, a, b);
  const Matrix product = matmul_at_b(a, b);
  for (std::size_t i = 0; i < acc.size(); ++i) {
    // Near, not equal: accumulating term-by-term on top of 1.0 associates
    // the sum differently than 1.0 + (full product).
    EXPECT_NEAR(acc.data()[i], 1.0 + product.data()[i], 1e-12);
  }

  // Accumulation from zero is exactly the product — the case the backward
  // pass relies on after zero_grad.
  Matrix from_zero(3, 5, 0.0);
  matmul_at_b_acc(from_zero, a, b);
  for (std::size_t i = 0; i < from_zero.size(); ++i) {
    EXPECT_EQ(from_zero.data()[i], product.data()[i]);
  }
}

TEST(Matrix, ResizeReusesCapacityAndResetsContents) {
  Matrix m(10, 10, 3.0);
  m.resize(4, 6, -1.0);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 6u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_DOUBLE_EQ(m.data()[i], -1.0);
  }
  m.resize(2, 2);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
}

TEST(Matrix, SaveLoadRoundTrip) {
  Rng rng(2);
  Matrix m = Matrix::he_normal(7, 5, rng);
  std::stringstream ss;
  m.save(ss);
  const Matrix loaded = Matrix::load(ss);
  ASSERT_EQ(loaded.rows(), 7u);
  ASSERT_EQ(loaded.cols(), 5u);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.data()[i], m.data()[i]);
  }
}

// ------------------------------------------------------------------ MLP ----

TEST(Mlp, OutputShape) {
  Rng rng(3);
  Mlp net({4, 8, 8, 2}, rng);
  Matrix x(5, 4, 0.1);
  const Matrix y = net.forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Mlp, ForwardConstMatchesForward) {
  Rng rng(4);
  Mlp net({3, 6, 2}, rng);
  Matrix x(2, 3);
  Rng data_rng(5);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = data_rng.normal();
  const Matrix a = net.forward(x);
  const Matrix b = net.forward_const(x);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.data()[i], b.data()[i]);
  }
}

TEST(Mlp, ParamCountFig4Architecture) {
  // The paper's deployed network stores ~10 664 float parameters (~42.7 KB).
  // Our Fig. 4 instantiation (3·8 inputs, two 45-neuron hidden layers,
  // 16·10 outputs) has 10 555 parameters ≈ 42.2 KB as 32-bit floats.
  Rng rng(6);
  Mlp net({24, 45, 45, 160}, rng);
  EXPECT_EQ(net.param_count(),
            24u * 45 + 45 + 45u * 45 + 45 + 45u * 160 + 160);
  EXPECT_EQ(net.param_count(), 10555u);
  EXPECT_NEAR(static_cast<double>(net.param_count() * 4) / 1024.0, 42.7, 2.0);
}

TEST(Mlp, GradientCheckFiniteDifferences) {
  // The decisive correctness test for manual backprop: analytic gradients
  // must match central finite differences on a scalar loss.
  Rng rng(7);
  Mlp net({3, 5, 4, 2}, rng);
  Matrix x(4, 3);
  Rng data_rng(8);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = data_rng.normal();

  // Loss: sum of squares of outputs → dL/dy = 2y.
  auto loss = [&](Mlp& n) {
    const Matrix y = n.forward_const(x);
    double l = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) l += y.data()[i] * y.data()[i];
    return l;
  };

  const Matrix y = net.forward(x);
  Matrix grad(y.rows(), y.cols());
  for (std::size_t i = 0; i < y.size(); ++i) grad.data()[i] = 2.0 * y.data()[i];
  net.zero_grad();
  net.backward(grad);

  const double eps = 1e-6;
  for (std::size_t layer = 0; layer < net.num_layers(); ++layer) {
    auto& w = net.layer(layer).weights();
    const auto& gw = net.layer(layer).weight_grad();
    for (std::size_t k = 0; k < w.size(); k += 3) {  // sample every 3rd param
      const double orig = w.data()[k];
      w.data()[k] = orig + eps;
      const double lp = loss(net);
      w.data()[k] = orig - eps;
      const double lm = loss(net);
      w.data()[k] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(gw.data()[k], numeric, 1e-4 * (1.0 + std::abs(numeric)))
          << "layer " << layer << " weight " << k;
    }
    auto& b = net.layer(layer).bias();
    const auto& gb = net.layer(layer).bias_grad();
    for (std::size_t k = 0; k < b.size(); ++k) {
      const double orig = b.data()[k];
      b.data()[k] = orig + eps;
      const double lp = loss(net);
      b.data()[k] = orig - eps;
      const double lm = loss(net);
      b.data()[k] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(gb.data()[k], numeric, 1e-4 * (1.0 + std::abs(numeric)))
          << "layer " << layer << " bias " << k;
    }
  }
}

TEST(Mlp, SgdLearnsLinearRegression) {
  Rng rng(9);
  Mlp net({2, 1}, rng);  // single linear layer
  Rng data_rng(10);
  // Target: y = 3x0 − 2x1 + 0.5.
  for (int step = 0; step < 4000; ++step) {
    Matrix x(8, 2);
    Matrix target(8, 1);
    for (std::size_t r = 0; r < 8; ++r) {
      x.at(r, 0) = data_rng.normal();
      x.at(r, 1) = data_rng.normal();
      target.at(r, 0) = 3.0 * x.at(r, 0) - 2.0 * x.at(r, 1) + 0.5;
    }
    const Matrix y = net.forward(x);
    Matrix grad(8, 1);
    for (std::size_t r = 0; r < 8; ++r) {
      grad.at(r, 0) = 2.0 * (y.at(r, 0) - target.at(r, 0)) / 8.0;
    }
    net.zero_grad();
    net.backward(grad);
    sgd_step(net, 0.05);
  }
  EXPECT_NEAR(net.layer(0).weights().at(0, 0), 3.0, 0.01);
  EXPECT_NEAR(net.layer(0).weights().at(1, 0), -2.0, 0.01);
  EXPECT_NEAR(net.layer(0).bias().at(0, 0), 0.5, 0.01);
}

TEST(Mlp, AdamLearnsNonlinearFunction) {
  Rng rng(11);
  Mlp net({1, 24, 24, 1}, rng);
  AdamOptimizer adam(net, {.lr = 3e-3, .beta1 = 0.9, .beta2 = 0.999, .epsilon = 1e-8});
  Rng data_rng(12);
  for (int step = 0; step < 3000; ++step) {
    Matrix x(16, 1);
    Matrix target(16, 1);
    for (std::size_t r = 0; r < 16; ++r) {
      const double v = data_rng.uniform(-1.0, 1.0);
      x.at(r, 0) = v;
      target.at(r, 0) = std::sin(3.0 * v);
    }
    const Matrix y = net.forward(x);
    Matrix grad(16, 1);
    for (std::size_t r = 0; r < 16; ++r) {
      grad.at(r, 0) = 2.0 * (y.at(r, 0) - target.at(r, 0)) / 16.0;
    }
    net.zero_grad();
    net.backward(grad);
    adam.step(net);
  }
  // Evaluate fit.
  double mse = 0.0;
  for (double v = -0.9; v <= 0.9; v += 0.1) {
    Matrix x(1, 1);
    x.at(0, 0) = v;
    const double y = net.forward_const(x).at(0, 0);
    mse += (y - std::sin(3.0 * v)) * (y - std::sin(3.0 * v));
  }
  EXPECT_LT(mse / 19.0, 0.02);
}

TEST(Mlp, CopyParametersMakesNetworksIdentical) {
  Rng rng(13);
  Mlp a({4, 6, 3}, rng), b({4, 6, 3}, rng);
  b.copy_parameters_from(a);
  Matrix x(2, 4, 0.3);
  const Matrix ya = a.forward_const(x), yb = b.forward_const(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(Mlp, SaveLoadRoundTrip) {
  Rng rng(14);
  Mlp a({5, 7, 2}, rng), b({5, 7, 2}, rng);
  std::stringstream ss;
  a.save(ss);
  b.load(ss);
  Matrix x(3, 5, -0.2);
  const Matrix ya = a.forward_const(x), yb = b.forward_const(x);
  for (std::size_t i = 0; i < ya.size(); ++i) {
    EXPECT_DOUBLE_EQ(ya.data()[i], yb.data()[i]);
  }
}

TEST(Mlp, GradientCheckOneHotTdRows) {
  // A DQN-shaped loss: each row's TD error on its one taken action,
  // L = Σ_r ½(Q(s_r, a_r) − y_r)², so dL/dQ is one-hot per row. The output
  // layer's input and weight gradients then take the sparse paths, while
  // the hidden layers (wider than kern::kSparseRowCap) stay dense.
  Rng rng(21);
  Mlp net({6, 16, 12, 10}, rng);
  const std::size_t batch = 5;
  Matrix x(batch, 6);
  Rng data_rng(22);
  for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = data_rng.normal();
  std::vector<std::size_t> actions(batch);
  std::vector<double> targets(batch);
  for (std::size_t r = 0; r < batch; ++r) {
    actions[r] = data_rng.index(10);
    targets[r] = data_rng.normal();
  }
  auto loss = [&](Mlp& n) {
    const Matrix q = n.forward_const(x);
    double l = 0.0;
    for (std::size_t r = 0; r < batch; ++r) {
      const double e = q.at(r, actions[r]) - targets[r];
      l += 0.5 * e * e;
    }
    return l;
  };

  const Matrix q = net.forward(x);
  Matrix grad(batch, 10);
  for (std::size_t r = 0; r < batch; ++r) {
    grad.at(r, actions[r]) = q.at(r, actions[r]) - targets[r];
  }
  net.zero_grad();
  net.backward(grad);

  const double eps = 1e-6;
  auto check = [&](Matrix& param, const Matrix& analytic, const char* what,
                   std::size_t layer) {
    for (std::size_t k = 0; k < param.size(); ++k) {
      const double orig = param.data()[k];
      param.data()[k] = orig + eps;
      const double lp = loss(net);
      param.data()[k] = orig - eps;
      const double lm = loss(net);
      param.data()[k] = orig;
      const double numeric = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(analytic.data()[k], numeric, 1e-4 * (1.0 + std::abs(numeric)))
          << "layer " << layer << " " << what << " " << k;
    }
  };
  for (std::size_t layer = 0; layer < net.num_layers(); ++layer) {
    check(net.layer(layer).weights(), net.layer(layer).weight_grad(), "weight",
          layer);
    check(net.layer(layer).bias(), net.layer(layer).bias_grad(), "bias",
          layer);
  }
}

namespace {

// a·b rounded on its own: the volatile store keeps the compiler from
// contracting the product into a following add (FMA), so the reference
// below performs exactly the roundings of kern::adam_update.
double mul(double a, double b) {
  volatile double r = a * b;
  return r;
}

// The fused Adam update of kern::adam_update without the subnormal flush.
void adam_reference(std::vector<double>& p, std::vector<double>& m,
                    std::vector<double>& v, const std::vector<double>& g,
                    const AdamOptimizer::Config& c, std::size_t t) {
  const double bc1 = 1.0 - std::pow(c.beta1, static_cast<double>(t));
  const double bc2 = 1.0 - std::pow(c.beta2, static_cast<double>(t));
  const double step = c.lr / bc1;
  const double inv_sqrt_bc2 = 1.0 / std::sqrt(bc2);
  for (std::size_t k = 0; k < p.size(); ++k) {
    m[k] = mul(c.beta1, m[k]) + mul(1.0 - c.beta1, g[k]);
    v[k] = mul(c.beta2, v[k]) + mul(mul(1.0 - c.beta2, g[k]), g[k]);
    p[k] -= mul(step, m[k]) / (mul(std::sqrt(v[k]), inv_sqrt_bc2) + c.epsilon);
  }
}

void set_grads(Mlp& net, double value) {
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    net.layer(i).weight_grad().fill(value);
    net.layer(i).bias_grad().fill(value);
  }
}

}  // namespace

TEST(AdamOptimizer, IdleMomentsFlushToZeroWithoutMovingWeights) {
  // One real gradient, then 8 000 zero-gradient steps — a dead ReLU unit's
  // history. Without the flush the first moments decay into subnormals and
  // stick there (0.9·k·2⁻¹⁰⁷⁴ rounds back to k·2⁻¹⁰⁷⁴ for small k).
  Rng rng(31);
  Mlp net({3, 4, 2}, rng);
  const AdamOptimizer::Config config;
  AdamOptimizer adam(net, config);
  const std::size_t n = net.param_count();
  std::vector<double> p(n), m(n, 0.0), v(n, 0.0);
  net.copy_flat_to(p);
  std::vector<double> g(n, 0.25);
  set_grads(net, 0.25);
  adam.step(net);
  adam_reference(p, m, v, g, config, 1);
  std::fill(g.begin(), g.end(), 0.0);
  set_grads(net, 0.0);
  for (std::size_t t = 2; t <= 8001; ++t) {
    adam.step(net);
    adam_reference(p, m, v, g, config, t);
  }

  // The unflushed reference really is in the stuck state…
  std::size_t stuck = 0;
  for (double x : m) stuck += std::fpclassify(x) == FP_SUBNORMAL;
  EXPECT_EQ(stuck, n);
  // …while every saved moment is +0 or normal…
  io::ByteWriter out;
  adam.save_state(out);
  io::ByteReader in(out.buffer());
  const AdamOptimizer::State state = AdamOptimizer::decode_state(in);
  EXPECT_EQ(state.step_count, 8001u);
  for (const io::NamedTensor& tensor : state.moments) {
    for (double x : tensor.data) {
      const int cls = std::fpclassify(x);
      EXPECT_TRUE(cls == FP_NORMAL || (cls == FP_ZERO && !std::signbit(x)))
          << tensor.name << " holds " << x;
    }
  }
  // …and the weights kept every bit of the unflushed update.
  std::vector<double> weights(n);
  net.copy_flat_to(weights);
  EXPECT_EQ(weights, p);

  // A diverging learner stays visible: a NaN gradient yields a NaN weight.
  net.layer(0).weight_grad().data()[0] = std::nan("");
  adam.step(net);
  EXPECT_TRUE(std::isnan(net.layer(0).weights().data()[0]));
}

TEST(Mlp, HuberGradClamps) {
  EXPECT_DOUBLE_EQ(huber_grad(0.3), 0.3);
  EXPECT_DOUBLE_EQ(huber_grad(5.0), 1.0);
  EXPECT_DOUBLE_EQ(huber_grad(-5.0), -1.0);
}

// --------------------------------------------------------------- replay ----

TEST(Replay, PushAndSize) {
  ReplayBuffer buf(4);
  for (int i = 0; i < 3; ++i) buf.push({{1.0}, 0, 0.0, {1.0}, false});
  EXPECT_EQ(buf.size(), 3u);
}

TEST(Replay, RingOverwritesOldest) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 5; ++i) {
    buf.push({{static_cast<double>(i)}, 0, 0.0, {0.0}, false});
  }
  EXPECT_EQ(buf.size(), 3u);
  // Entries 0 and 1 must have been overwritten by 3 and 4.
  std::set<double> seen;
  for (std::size_t i = 0; i < buf.size(); ++i) seen.insert(buf.at(i).state[0]);
  EXPECT_EQ(seen.count(0.0), 0u);
  EXPECT_EQ(seen.count(1.0), 0u);
  EXPECT_EQ(seen.count(4.0), 1u);
}

TEST(Replay, WraparoundReplacesOldestFirst) {
  ReplayBuffer buf(3);
  for (int i = 0; i < 4; ++i) {
    buf.push({{static_cast<double>(i)}, 0, 0.0, {0.0}, false});
  }
  // The ring cursor starts at slot 0 once full: pushing 3 evicts 0 (the
  // oldest), leaving 1 and 2 in place.
  EXPECT_DOUBLE_EQ(buf.at(0).state[0], 3.0);
  EXPECT_DOUBLE_EQ(buf.at(1).state[0], 1.0);
  EXPECT_DOUBLE_EQ(buf.at(2).state[0], 2.0);
  buf.push({{4.0}, 0, 0.0, {0.0}, false});  // evicts 1
  buf.push({{5.0}, 0, 0.0, {0.0}, false});  // evicts 2
  buf.push({{6.0}, 0, 0.0, {0.0}, false});  // cursor wrapped: evicts 3
  EXPECT_DOUBLE_EQ(buf.at(0).state[0], 6.0);
  EXPECT_DOUBLE_EQ(buf.at(1).state[0], 4.0);
  EXPECT_DOUBLE_EQ(buf.at(2).state[0], 5.0);
}

TEST(Replay, ClearThenRefillRestartsRing) {
  ReplayBuffer buf(2);
  for (int i = 0; i < 3; ++i) {
    buf.push({{static_cast<double>(i)}, 0, 0.0, {0.0}, false});
  }
  buf.clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), 2u);
  // A refilled buffer behaves exactly like a fresh one, cursor included.
  for (int i = 7; i < 10; ++i) {
    buf.push({{static_cast<double>(i)}, 0, 0.0, {0.0}, false});
  }
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_DOUBLE_EQ(buf.at(0).state[0], 9.0);
  EXPECT_DOUBLE_EQ(buf.at(1).state[0], 8.0);
}

TEST(Replay, SampleIsDeterministicGivenSeed) {
  ReplayBuffer buf(8);
  for (int i = 0; i < 8; ++i) {
    buf.push({{static_cast<double>(i)}, 0, 0.0, {0.0}, false});
  }
  Rng a(42);
  Rng b(42);
  const auto sample_a = buf.sample(64, a);
  const auto sample_b = buf.sample(64, b);
  ASSERT_EQ(sample_a.size(), sample_b.size());
  for (std::size_t i = 0; i < sample_a.size(); ++i) {
    EXPECT_DOUBLE_EQ(sample_a[i]->state[0], sample_b[i]->state[0]);
  }
}

TEST(Replay, SampleFromEmptyThrows) {
  ReplayBuffer buf(2);
  Rng rng(1);
  EXPECT_THROW(buf.sample(1, rng), CheckFailure);
}

TEST(Replay, SampleCoversBuffer) {
  ReplayBuffer buf(8);
  for (int i = 0; i < 8; ++i) {
    buf.push({{static_cast<double>(i)}, 0, 0.0, {0.0}, false});
  }
  Rng rng(2);
  std::set<double> seen;
  for (const auto* t : buf.sample(400, rng)) seen.insert(t->state[0]);
  EXPECT_EQ(seen.size(), 8u);
}

// ------------------------------------------------------------------ DQN ----

DqnConfig small_config() {
  DqnConfig c;
  c.state_dim = 2;
  c.num_actions = 2;
  c.hidden = {16, 16};
  c.learning_rate = 2e-3;
  c.gamma = 0.5;
  c.reward_scale = 1.0;
  c.epsilon_start = 1.0;
  c.epsilon_end = 0.05;
  c.epsilon_decay_steps = 500;
  c.batch_size = 16;
  c.replay_capacity = 2000;
  c.min_replay_before_training = 64;
  c.target_sync_interval = 50;
  c.seed = 3;
  return c;
}

TEST(Dqn, EpsilonDecaysLinearly) {
  DqnAgent agent(small_config());
  EXPECT_DOUBLE_EQ(agent.epsilon(), 1.0);
  const std::vector<double> s = {0.0, 0.0};
  for (int i = 0; i < 250; ++i) {
    agent.observe({s, 0, 0.0, s, false});
  }
  EXPECT_NEAR(agent.epsilon(), 0.525, 0.01);
  for (int i = 0; i < 500; ++i) {
    agent.observe({s, 0, 0.0, s, false});
  }
  EXPECT_NEAR(agent.epsilon(), 0.05, 1e-9);
}

TEST(Dqn, QValuesHaveActionArity) {
  DqnAgent agent(small_config());
  const auto q = agent.q_values(std::vector<double>{0.1, -0.3});
  EXPECT_EQ(q.size(), 2u);
}

TEST(Dqn, LearnsContextualBandit) {
  // Two states; action must match the state to earn reward 1 (else 0).
  DqnAgent agent(small_config());
  Rng rng(4);
  for (int step = 0; step < 3000; ++step) {
    const bool which = rng.bernoulli(0.5);
    const std::vector<double> s = {which ? 1.0 : 0.0, which ? 0.0 : 1.0};
    const std::size_t a = agent.act(s);
    const double r = (a == (which ? 1u : 0u)) ? 1.0 : 0.0;
    const bool next_which = rng.bernoulli(0.5);
    const std::vector<double> s2 = {next_which ? 1.0 : 0.0,
                                    next_which ? 0.0 : 1.0};
    agent.observe({s, a, r, s2, false});
  }
  EXPECT_EQ(agent.act_greedy(std::vector<double>{0.0, 1.0}), 0u);
  EXPECT_EQ(agent.act_greedy(std::vector<double>{1.0, 0.0}), 1u);
}

TEST(Dqn, LearnsDelayedRewardChain) {
  // A 2-step chain: from state A, action 1 leads to state B (reward 0),
  // where action 1 earns reward 1. Requires bootstrapping through γ.
  auto config = small_config();
  config.gamma = 0.9;
  DqnAgent agent(config);
  Rng rng(5);
  const std::vector<double> A = {1.0, 0.0};
  const std::vector<double> B = {0.0, 1.0};
  for (int episode = 0; episode < 1200; ++episode) {
    const std::size_t a0 = agent.act(A);
    if (a0 == 1) {
      agent.observe({A, a0, 0.0, B, false});
      const std::size_t a1 = agent.act(B);
      agent.observe({B, a1, a1 == 1 ? 1.0 : 0.0, A, true});
    } else {
      agent.observe({A, a0, 0.0, A, true});
    }
  }
  EXPECT_EQ(agent.act_greedy(A), 1u);
  EXPECT_EQ(agent.act_greedy(B), 1u);
  // Q(A, 1) should approach γ·1 = 0.9.
  const auto qa = agent.q_values(A);
  EXPECT_NEAR(qa[1], 0.9, 0.25);
}

TEST(Dqn, SaveLoadPreservesPolicy) {
  DqnAgent a(small_config());
  const std::vector<double> s = {0.4, -0.8};
  // Perturb the network with a few training steps.
  for (int i = 0; i < 200; ++i) {
    a.observe({s, i % 2 == 0 ? 0u : 1u, 0.3, s, false});
  }
  const std::string path = "/tmp/ctj_dqn_test.bin";
  a.save_file(path);
  DqnAgent b(small_config());
  b.load_file(path);
  const auto qa = a.q_values(s), qb = b.q_values(s);
  for (std::size_t i = 0; i < qa.size(); ++i) {
    EXPECT_DOUBLE_EQ(qa[i], qb[i]);
  }
  std::filesystem::remove(path);
}

TEST(Dqn, DeployedSizeMatchesPaperScale) {
  DqnConfig c;  // defaults: 24-45-45-160
  DqnAgent agent(c);
  EXPECT_EQ(agent.param_count(), 10555u);
  EXPECT_NEAR(static_cast<double>(agent.deployed_size_bytes()) / 1024.0, 42.7,
              2.0);
}

TEST(Dqn, TrainStepRequiresMinimumReplay) {
  DqnAgent agent(small_config());
  EXPECT_FALSE(agent.train_step().has_value());
}

TEST(Dqn, EpsilonGreedyExploresUniformlyOverAllActions) {
  // Textbook convention: with probability ε the agent draws uniformly over
  // ALL actions, so the greedy action's total frequency is 1−ε+ε/A and every
  // other action's is ε/A.
  auto config = small_config();
  config.num_actions = 4;
  config.hidden = {8, 8};
  config.epsilon_start = 0.4;
  config.epsilon_end = 0.4;  // hold ε constant for the frequency estimate
  DqnAgent agent(config);
  const std::vector<double> state = {0.3, -0.2};
  const std::size_t greedy = agent.act_greedy(state);
  const int trials = 20000;
  std::vector<int> counts(config.num_actions, 0);
  for (int i = 0; i < trials; ++i) ++counts[agent.act(state)];
  const double eps = 0.4;
  const double uniform = eps / static_cast<double>(config.num_actions);
  for (std::size_t a = 0; a < config.num_actions; ++a) {
    const double freq = static_cast<double>(counts[a]) / trials;
    const double expected = (a == greedy) ? 1.0 - eps + uniform : uniform;
    EXPECT_NEAR(freq, expected, 0.02) << "action " << a;
  }
}

}  // namespace
}  // namespace ctj::rl
