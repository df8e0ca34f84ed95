// SIMD kernel layer: scalar vs AVX2/AVX-512 parity (bit-exact where
// promised, ULP-bounded where FMA contraction is allowed), TD/Huber
// semantics against the straightforward reference, and the CTJ_SIMD
// dispatch resolver.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/kernels.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "rl/matrix.hpp"
#include "rl/nn.hpp"

namespace ctj {
namespace {

using kern::KernelOps;
using kern::SimdLevel;
using kern::TdHuberArgs;

std::vector<double> random_vec(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(0.0, 1.0);
  return v;
}

/// Every SIMD level the build carries AND this CPU can execute. Parity tests
/// loop over these so the AVX-512 level gets the same coverage as AVX2
/// wherever hardware allows.
std::vector<const KernelOps*> simd_levels() {
  std::vector<const KernelOps*> levels;
  if (kern::cpu_supports_avx2() && kern::avx2_ops() != nullptr) {
    levels.push_back(kern::avx2_ops());
  }
  if (kern::cpu_supports_avx512() && kern::avx512_ops() != nullptr) {
    levels.push_back(kern::avx512_ops());
  }
  return levels;
}

#define REQUIRE_SIMD(levels_var)                                    \
  const std::vector<const KernelOps*> levels_var = simd_levels();   \
  if (levels_var.empty())                                           \
  GTEST_SKIP() << "no SIMD kernel level available on this CPU/build"

TEST(KernelDispatch, ResolveLevelHonorsOverridesAndCpu) {
  const bool have_avx2 = kern::avx2_ops() != nullptr;
  const bool have_avx512 = kern::avx512_ops() != nullptr;
  // Explicit off/scalar wins regardless of CPU capabilities.
  EXPECT_EQ(kern::resolve_level("off", true, true), SimdLevel::kScalar);
  EXPECT_EQ(kern::resolve_level("scalar", true, true), SimdLevel::kScalar);
  EXPECT_EQ(kern::resolve_level("OFF", true, true), SimdLevel::kScalar);
  // No CPU support at all -> scalar whatever was asked.
  EXPECT_EQ(kern::resolve_level(nullptr, false, false), SimdLevel::kScalar);
  EXPECT_EQ(kern::resolve_level("", false, false), SimdLevel::kScalar);
  EXPECT_EQ(kern::resolve_level("avx2", false, false), SimdLevel::kScalar);
  EXPECT_EQ(kern::resolve_level("bogus", false, false), SimdLevel::kScalar);
  if (have_avx2) {
    EXPECT_EQ(kern::resolve_level("avx2", true, false), SimdLevel::kAvx2);
    EXPECT_EQ(kern::resolve_level("AVX2", true, false), SimdLevel::kAvx2);
    EXPECT_EQ(kern::resolve_level(nullptr, true, false), SimdLevel::kAvx2);
    EXPECT_EQ(kern::resolve_level("", true, false), SimdLevel::kAvx2);
    // Unknown values warn and fall back to auto-detection.
    EXPECT_EQ(kern::resolve_level("bogus", true, false), SimdLevel::kAvx2);
    // Pinning avx2 on an AVX-512 machine must not upgrade.
    EXPECT_EQ(kern::resolve_level("avx2", true, true), SimdLevel::kAvx2);
  }
  if (have_avx512) {
    EXPECT_EQ(kern::resolve_level("avx512", true, true), SimdLevel::kAvx512);
    EXPECT_EQ(kern::resolve_level("AVX512", true, true), SimdLevel::kAvx512);
    // Auto-detection prefers the widest usable level.
    EXPECT_EQ(kern::resolve_level(nullptr, true, true), SimdLevel::kAvx512);
    EXPECT_EQ(kern::resolve_level("", true, true), SimdLevel::kAvx512);
    EXPECT_EQ(kern::resolve_level("bogus", true, true), SimdLevel::kAvx512);
  }
  if (have_avx2) {
    // avx512 requested on a CPU without it falls back to the best level,
    // not to scalar.
    EXPECT_EQ(kern::resolve_level("avx512", true, false), SimdLevel::kAvx2);
  }
}

TEST(KernelDispatch, ActiveOpsNamedConsistently) {
  const std::string name = kern::simd_level_name();
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "avx512");
  EXPECT_STREQ(kern::ops().name, name.c_str());
}

TEST(KernelParity, MatmulUlpBounded) {
  REQUIRE_SIMD(levels);
  const KernelOps& scalar = kern::scalar_ops();
  // Shapes cover the DQN layers plus ragged tails for the stripe cascades
  // (64/32/8/4-wide in the AVX-512 level, 32/8/4-wide in AVX2).
  const struct { std::size_t m, k, n; } shapes[] = {
      {1, 24, 45},  {32, 24, 45}, {32, 45, 45},  {32, 45, 160},
      {45, 32, 160}, {3, 7, 5},   {2, 4, 17},    {8, 16, 33},
      {4, 12, 67},  {16, 24, 130},
  };
  for (const KernelOps* simd : levels) {
    SCOPED_TRACE(simd->name);
    Rng rng(11);
    for (const auto& s : shapes) {
      const auto a = random_vec(s.m * s.k, rng);
      const auto b = random_vec(s.k * s.n, rng);
      std::vector<double> c_ref(s.m * s.n, 0.0);
      std::vector<double> c_simd(s.m * s.n, 0.0);
      scalar.matmul_acc(c_ref.data(), a.data(), b.data(), s.m, s.k, s.n);
      simd->matmul_acc(c_simd.data(), a.data(), b.data(), s.m, s.k, s.n);
      for (std::size_t i = 0; i < c_ref.size(); ++i) {
        // Condition-aware bound: both levels run the same k-order sum, the
        // only divergence is one rounding per FMA, so the difference is tiny
        // relative to Σ|a·b| even when the signed sum cancels.
        const std::size_t row = i / s.n, col = i % s.n;
        double abs_sum = 0.0;
        for (std::size_t k = 0; k < s.k; ++k) {
          abs_sum += std::abs(a[row * s.k + k] * b[k * s.n + col]);
        }
        EXPECT_LE(std::abs(c_ref[i] - c_simd[i]), 1e-13 * (abs_sum + 1.0))
            << "matmul " << s.m << "x" << s.k << "x" << s.n << " elem " << i
            << ": " << c_ref[i] << " vs " << c_simd[i];
      }
    }
  }
}

TEST(KernelParity, MatmulSkipsExactZeros) {
  REQUIRE_SIMD(levels);
  for (const KernelOps* simd : levels) {
    SCOPED_TRACE(simd->name);
    Rng rng(12);
    // One-hot A rows (the DQN output gradient): both levels must produce the
    // single-term products exactly.
    const std::size_t m = 6, k = 160, n = 45;
    std::vector<double> a(m * k, 0.0);
    for (std::size_t i = 0; i < m; ++i) a[i * k + rng.index(k)] = rng.normal();
    const auto b = random_vec(k * n, rng);
    std::vector<double> c_ref(m * n, 0.0), c_simd(m * n, 0.0);
    kern::scalar_ops().matmul_acc(c_ref.data(), a.data(), b.data(), m, k, n);
    simd->matmul_acc(c_simd.data(), a.data(), b.data(), m, k, n);
    for (std::size_t i = 0; i < c_ref.size(); ++i) {
      EXPECT_EQ(c_ref[i], c_simd[i]);
    }
  }
}

// The backward products at every level (scalar included) against
// rl::matmul_a_bt / rl::matmul_at_b and against the explicit
// transpose-then-multiply on the scalar level, on the gradients the DQN
// feeds them: the one-hot TD gradient of the output layer, ReLU-sparse and
// dense hidden-layer gradients, rows sparse enough for the sparse path but
// with several nonzeros each, and a one-hot matrix with one dense row (which
// sends the whole product down the dense path).
TEST(KernelParity, BackwardProductsUlpBounded) {
  std::vector<const KernelOps*> levels = {&kern::scalar_ops()};
  for (const KernelOps* simd : simd_levels()) levels.push_back(simd);
  enum class Grad { kOneHot, kReluSparse, kDense, kFewNonzeros, kOneDenseRow };
  const struct {
    const char* name;
    Grad kind;
    std::size_t in, out;
  } cases[] = {
      {"one-hot", Grad::kOneHot, 45, 160},
      {"relu-sparse", Grad::kReluSparse, 45, 45},
      {"dense", Grad::kDense, 24, 45},
      {"few-nonzeros", Grad::kFewNonzeros, 45, 45},
      {"one-dense-row", Grad::kOneDenseRow, 45, 160},
  };
  constexpr std::size_t kBatch = 32;
  const auto transposed = [](const rl::Matrix& x) {
    rl::Matrix t(x.cols(), x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c) t.at(c, r) = x.at(r, c);
    }
    return t;
  };
  const auto explicit_product = [](const rl::Matrix& a, const rl::Matrix& b) {
    rl::Matrix c(a.rows(), b.cols());
    kern::scalar_ops().matmul_acc(c.data(), a.data(), b.data(), a.rows(),
                                  a.cols(), b.cols());
    return c;
  };
  // Condition-aware bound (as in MatmulUlpBounded): |Δ| ≤ 1e-13·(Σ|a·b| + 1).
  const auto expect_close = [](const std::vector<double>& got,
                               const rl::Matrix& want, const rl::Matrix& abs_sum,
                               const std::string& what) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_LE(std::abs(got[i] - want.data()[i]),
                1e-13 * (abs_sum.data()[i] + 1.0))
          << what << " elem " << i << ": " << got[i] << " vs "
          << want.data()[i];
    }
  };
  const auto abs_of = [](rl::Matrix x) {
    for (std::size_t i = 0; i < x.size(); ++i) x.data()[i] = std::abs(x.data()[i]);
    return x;
  };
  for (const auto& tc : cases) {
    Rng rng(19);
    rl::Matrix g(kBatch, tc.out);
    for (std::size_t r = 0; r < kBatch; ++r) {
      for (std::size_t c = 0; c < tc.out; ++c) {
        bool nonzero = false;
        switch (tc.kind) {
          case Grad::kOneHot:
          case Grad::kOneDenseRow:
            nonzero = tc.kind == Grad::kOneDenseRow && r == 7;
            break;
          case Grad::kReluSparse:
            nonzero = rng.uniform() < 0.5;
            break;
          case Grad::kDense:
            nonzero = true;
            break;
          case Grad::kFewNonzeros:
            nonzero = c % 16 == r % 16;
            break;
        }
        if (nonzero) g.at(r, c) = rng.normal();
      }
      if (tc.kind == Grad::kOneHot || tc.kind == Grad::kOneDenseRow) {
        g.at(r, rng.index(tc.out)) = rng.normal();
      }
    }
    rl::Matrix w(tc.in, tc.out);
    for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.normal();
    rl::Matrix x(kBatch, tc.in);  // layer input: ReLU activations
    for (std::size_t i = 0; i < x.size(); ++i) {
      x.data()[i] = rng.uniform() < 0.5 ? 0.0 : std::abs(rng.normal());
    }

    const rl::Matrix grad_in = rl::matmul_a_bt(g, w);
    const rl::Matrix grad_in_explicit = explicit_product(g, transposed(w));
    const rl::Matrix grad_in_abs =
        explicit_product(abs_of(g), transposed(abs_of(w)));
    const rl::Matrix grad_w = rl::matmul_at_b(x, g);
    const rl::Matrix grad_w_explicit = explicit_product(transposed(x), g);
    const rl::Matrix grad_w_abs =
        explicit_product(transposed(abs_of(x)), abs_of(g));
    for (const KernelOps* level : levels) {
      const std::string what = std::string(tc.name) + " @" + level->name;
      std::vector<double> c_in(kBatch * tc.in, 0.0);
      level->matmul_a_bt_acc(c_in.data(), g.data(), w.data(), kBatch, tc.out,
                             tc.in);
      expect_close(c_in, grad_in, grad_in_abs, what + " input grad");
      expect_close(c_in, grad_in_explicit, grad_in_abs,
                   what + " input grad (explicit)");
      if (tc.kind == Grad::kOneHot) {
        // One term per element: a single rounding at every level.
        for (std::size_t i = 0; i < c_in.size(); ++i) {
          EXPECT_EQ(c_in[i], grad_in_explicit.data()[i]) << what << " " << i;
        }
      }
      std::vector<double> c_w(tc.in * tc.out, 0.0);
      level->matmul_at_b_acc(c_w.data(), x.data(), g.data(), kBatch, tc.in,
                             tc.out);
      expect_close(c_w, grad_w, grad_w_abs, what + " weight grad");
      expect_close(c_w, grad_w_explicit, grad_w_abs,
                   what + " weight grad (explicit)");
    }
  }
}

TEST(KernelParity, SaxpyUlpBounded) {
  REQUIRE_SIMD(levels);
  for (const KernelOps* simd : levels) {
    SCOPED_TRACE(simd->name);
    Rng rng(13);
    for (std::size_t n : {1u, 3u, 4u, 7u, 8u, 17u, 45u, 160u, 161u}) {
      const auto x = random_vec(n, rng);
      const auto y0 = random_vec(n, rng);
      auto y_ref = y0;
      auto y_simd = y0;
      const double alpha = rng.normal();
      kern::scalar_ops().saxpy(n, alpha, x.data(), y_ref.data());
      simd->saxpy(n, alpha, x.data(), y_simd.data());
      for (std::size_t i = 0; i < n; ++i) {
        // FMA saves one rounding of a·x, so the paths differ by at most one
        // ulp of the operand magnitudes (not of the possibly-cancelled sum).
        const double tol = 1e-15 * (std::abs(alpha * x[i]) + std::abs(y0[i]));
        EXPECT_LE(std::abs(y_ref[i] - y_simd[i]), tol)
            << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelParity, BiasActBitExact) {
  REQUIRE_SIMD(levels);
  for (const KernelOps* simd : levels) {
    SCOPED_TRACE(simd->name);
    Rng rng(14);
    for (const bool relu : {false, true}) {
      for (std::size_t cols : {1u, 5u, 45u, 160u}) {
        const std::size_t rows = 9;
        const auto bias = random_vec(cols, rng);
        auto y_ref = random_vec(rows * cols, rng);
        auto y_simd = y_ref;
        kern::scalar_ops().bias_act(y_ref.data(), bias.data(), rows, cols,
                                    relu);
        simd->bias_act(y_simd.data(), bias.data(), rows, cols, relu);
        for (std::size_t i = 0; i < y_ref.size(); ++i) {
          EXPECT_EQ(y_ref[i], y_simd[i])
              << "relu=" << relu << " cols=" << cols;
        }
        if (relu) {
          for (double v : y_simd) EXPECT_GE(v, 0.0);
        }
      }
    }
  }
}

TEST(KernelParity, RowMaxAndArgmaxBitExact) {
  REQUIRE_SIMD(levels);
  for (const KernelOps* simd : levels) {
    SCOPED_TRACE(simd->name);
    Rng rng(15);
    for (std::size_t n : {1u, 2u, 7u, 8u, 9u, 16u, 45u, 160u, 163u}) {
      const auto x = random_vec(n, rng);
      EXPECT_EQ(kern::scalar_ops().row_max(x.data(), n),
                simd->row_max(x.data(), n));
      const std::size_t ref = kern::scalar_ops().row_argmax(x.data(), n);
      EXPECT_EQ(ref, simd->row_argmax(x.data(), n));
      EXPECT_EQ(ref, argmax(std::span<const double>(x)));
    }
  }
}

TEST(KernelParity, ArgmaxFirstOnTies) {
  REQUIRE_SIMD(levels);
  for (const KernelOps* simd : levels) {
    SCOPED_TRACE(simd->name);
    for (std::size_t n : {6u, 12u, 40u}) {
      std::vector<double> x(n, -1.0);
      // Duplicate maxima in different SIMD lanes: both levels must report
      // the first occurrence, like std::max_element.
      x[2] = 3.5;
      x[n - 1] = 3.5;
      EXPECT_EQ(kern::scalar_ops().row_argmax(x.data(), n), 2u);
      EXPECT_EQ(simd->row_argmax(x.data(), n), 2u);
    }
  }
}

/// Straight-line reference for the fused TD/Huber kernel, written against
/// the rl:: Huber helpers rather than kernels_detail.
double td_huber_reference(const TdHuberArgs& a, std::vector<double>& grad) {
  grad.assign(a.batch * a.num_actions, 0.0);
  double loss = 0.0;
  for (std::size_t i = 0; i < a.batch; ++i) {
    const double* nq = a.next_q + i * a.num_actions;
    double max_next;
    if (a.next_q_online != nullptr) {
      const double* nqo = a.next_q_online + i * a.num_actions;
      max_next = nq[argmax(std::span<const double>(nqo, a.num_actions))];
    } else {
      max_next = nq[argmax(std::span<const double>(nq, a.num_actions))];
    }
    const double r = a.rewards[i] * a.reward_scale;
    const double target = a.dones[i] ? r : r + a.gamma * max_next;
    const double error = a.q[i * a.num_actions + a.actions[i]] - target;
    loss += rl::huber_loss(error, a.huber_delta);
    grad[i * a.num_actions + a.actions[i]] =
        rl::huber_grad(error, a.huber_delta) / a.grad_div;
  }
  return loss;
}

TdHuberArgs make_td_args(std::size_t batch, std::size_t num_actions) {
  TdHuberArgs a;
  a.batch = batch;
  a.num_actions = num_actions;
  a.gamma = 0.9;
  a.reward_scale = 0.01;
  a.grad_div = static_cast<double>(batch);
  a.huber_delta = 1.0;
  return a;
}

class TdHuberTest : public ::testing::TestWithParam<bool> {};

TEST_P(TdHuberTest, MatchesReferenceAndAvx2BitExact) {
  const bool double_dqn = GetParam();
  Rng rng(16);
  const std::size_t B = 32, A = 160;
  const auto q = random_vec(B * A, rng);
  // Spread Q values wide enough to exercise both Huber branches.
  auto next_q = random_vec(B * A, rng);
  for (double& v : next_q) v *= 40.0;
  const auto next_q_online = random_vec(B * A, rng);
  std::vector<std::size_t> actions(B);
  std::vector<double> rewards(B);
  std::vector<std::uint8_t> dones(B);
  for (std::size_t i = 0; i < B; ++i) {
    actions[i] = rng.index(A);
    rewards[i] = rng.uniform(-160.0, 0.0);
    dones[i] = rng.bernoulli(0.2) ? 1 : 0;
  }

  TdHuberArgs args = make_td_args(B, A);
  args.q = q.data();
  args.next_q = next_q.data();
  args.next_q_online = double_dqn ? next_q_online.data() : nullptr;
  args.actions = actions.data();
  args.rewards = rewards.data();
  args.dones = dones.data();

  std::vector<double> grad_ref;
  const double loss_ref = td_huber_reference(args, grad_ref);

  std::vector<double> grad_scalar(B * A, 0.0);
  const double loss_scalar =
      kern::scalar_ops().td_huber_batch(args, grad_scalar.data());
  EXPECT_EQ(loss_scalar, loss_ref);
  EXPECT_EQ(grad_scalar, grad_ref);

  // The SIMD variants only swap in the vector max/argmax, which are
  // bit-exact (the AVX-512 table inherits this kernel from AVX2 outright);
  // the whole fused kernel must therefore agree to the last bit.
  for (const KernelOps* simd : simd_levels()) {
    SCOPED_TRACE(simd->name);
    std::vector<double> grad_simd(B * A, 0.0);
    const double loss_simd = simd->td_huber_batch(args, grad_simd.data());
    EXPECT_EQ(loss_simd, loss_ref);
    EXPECT_EQ(grad_simd, grad_ref);
  }
}

INSTANTIATE_TEST_SUITE_P(VanillaAndDouble, TdHuberTest, ::testing::Bool());

}  // namespace
}  // namespace ctj
