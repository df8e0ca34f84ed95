#include "common/kernels.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>

#include "common/kernels_detail.hpp"
#include "common/logging.hpp"

namespace ctj::kern {
namespace {

// ------------------------------------------------------- scalar kernels ----
// These are the determinism baseline: matmul_acc is the blocked ikj product
// that lived in rl/matrix.cpp (same tile sizes, same zero-skip, same
// k-accumulation order), bias_act is the two-pass bias-then-ReLU the MLP
// forward used to run, and the reductions fold left to right exactly like
// the loops they replaced. This TU is built with -ffp-contract=off, so a
// CTJ_SIMD=off run produces the same bits on a native and a portable build.

// Tile sizes for the blocked matmul: a kI×kJ tile of C plus the touched rows
// of B stay L1-resident while the k loop streams over them. k itself is never
// tiled, so each C element accumulates in the same order as the naive ikj
// product.
constexpr std::size_t kBlockI = 32;
constexpr std::size_t kBlockJ = 128;

void matmul_acc_scalar(double* c, const double* a, const double* b,
                       std::size_t m, std::size_t kk, std::size_t n) {
  for (std::size_t i0 = 0; i0 < m; i0 += kBlockI) {
    const std::size_t i1 = std::min(m, i0 + kBlockI);
    for (std::size_t j0 = 0; j0 < n; j0 += kBlockJ) {
      const std::size_t j1 = std::min(n, j0 + kBlockJ);
      for (std::size_t i = i0; i < i1; ++i) {
        const double* arow = a + i * kk;
        double* crow = c + i * n;
        for (std::size_t k = 0; k < kk; ++k) {
          const double aik = arow[k];
          if (aik == 0.0) continue;
          const double* brow = b + k * n;
          for (std::size_t j = j0; j < j1; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
}

void saxpy_scalar(std::size_t n, double a, const double* x, double* y) {
  for (std::size_t j = 0; j < n; ++j) y[j] += a * x[j];
}

void bias_act_scalar(double* y, const double* bias, std::size_t rows,
                     std::size_t cols, bool relu) {
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = y + r * cols;
    for (std::size_t c = 0; c < cols; ++c) row[c] += bias[c];
  }
  if (relu) {
    for (std::size_t k = 0; k < rows * cols; ++k) {
      if (y[k] < 0.0) y[k] = 0.0;
    }
  }
}

double row_max_scalar(const double* x, std::size_t n) {
  double m = x[0];
  for (std::size_t j = 1; j < n; ++j) {
    if (x[j] > m) m = x[j];
  }
  return m;
}

std::size_t row_argmax_scalar(const double* x, std::size_t n) {
  std::size_t best = 0;
  for (std::size_t j = 1; j < n; ++j) {
    if (x[j] > x[best]) best = j;
  }
  return best;
}

double td_huber_batch_scalar(const TdHuberArgs& args, double* grad) {
  return detail::td_huber_epilogue(args, grad, row_max_scalar,
                                   row_argmax_scalar);
}

void viterbi_acs_hard_scalar(const std::int32_t* metric,
                             const std::int32_t* cost0,
                             const std::int32_t* cost1, std::int32_t* next,
                             std::uint64_t* chosen) {
  std::uint64_t bits = 0;
  for (unsigned ns = 0; ns < 64; ++ns) {
    const unsigned j = ns & 31;
    const std::int32_t v0 = metric[2 * j] + cost0[ns];
    const std::int32_t v1 = metric[2 * j + 1] + cost1[ns];
    const bool odd = v1 < v0;
    next[ns] = odd ? v1 : v0;
    bits |= static_cast<std::uint64_t>(odd) << ns;
  }
  *chosen = bits;
}

void viterbi_acs_soft_scalar(const double* metric, const double* cost0,
                             const double* cost1, double* next,
                             std::uint64_t* chosen) {
  std::uint64_t bits = 0;
  for (unsigned ns = 0; ns < 64; ++ns) {
    const unsigned j = ns & 31;
    const double v0 = metric[2 * j] + cost0[ns];
    const double v1 = metric[2 * j + 1] + cost1[ns];
    const bool odd = v1 < v0;
    next[ns] = odd ? v1 : v0;
    bits |= static_cast<std::uint64_t>(odd) << ns;
  }
  *chosen = bits;
}

// The reference arithmetic mirrors the Qam64::quantize path exactly:
// x·(1/(α·norm)) onto the slot grid via std::round((x+7)/2) clamped to
// [0, 7], back through level = −7 + 2·slot, (level·norm)·α, and a
// left-to-right err += dre² + dim² fold — so the scalar kernel is
// bit-identical to the pre-kernel quantization_error loop.
double qam64_error_scalar(const double* iq, std::size_t n, double alpha,
                          double norm) {
  const double scale = 1.0 / (alpha * norm);
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double re = iq[2 * i];
    const double im = iq[2 * i + 1];
    double si = std::round((re * scale + 7.0) / 2.0);
    if (si < 0.0) si = 0.0;
    if (si > 7.0) si = 7.0;
    double sq = std::round((im * scale + 7.0) / 2.0);
    if (sq < 0.0) sq = 0.0;
    if (sq > 7.0) sq = 7.0;
    const double dre = ((-7.0 + 2.0 * si) * norm) * alpha - re;
    const double dim = ((-7.0 + 2.0 * sq) * norm) * alpha - im;
    err += dre * dre + dim * dim;
  }
  return err;
}

}  // namespace

const KernelOps& scalar_ops() {
  static constexpr KernelOps kOps{
      "scalar",
      matmul_acc_scalar,
      detail::matmul_a_bt_acc<matmul_acc_scalar>,
      detail::matmul_at_b_acc<matmul_acc_scalar>,
      saxpy_scalar,
      bias_act_scalar,
      row_max_scalar,
      row_argmax_scalar,
      td_huber_batch_scalar,
      viterbi_acs_hard_scalar,
      viterbi_acs_soft_scalar,
      qam64_error_scalar,
  };
  return kOps;
}

// ------------------------------------------------------------------ Adam ----

void adam_update(double* p, double* m, double* v, const double* g,
                 std::size_t n, double beta1, double beta2, double lr,
                 double bc1, double bc2, double epsilon) {
  const double step = lr / bc1;
  const double inv_sqrt_bc2 = 1.0 / std::sqrt(bc2);
  const double one_minus_beta1 = 1.0 - beta1;
  const double one_minus_beta2 = 1.0 - beta2;
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  for (std::size_t k = 0; k < n; ++k) {
    const double gk = g[k];
    double mk = beta1 * m[k] + one_minus_beta1 * gk;
    double vk = beta2 * v[k] + one_minus_beta2 * gk * gk;
    // Select, not branch: |NaN| < DBL_MIN is false, so NaN survives.
    mk = std::abs(mk) < kMinNormal ? 0.0 : mk;
    vk = std::abs(vk) < kMinNormal ? 0.0 : vk;
    m[k] = mk;
    v[k] = vk;
    p[k] -= step * mk / (std::sqrt(vk) * inv_sqrt_bc2 + epsilon);
  }
}

// ------------------------------------------------------------- dispatch ----

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return cpu_supports_avx2() && __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

SimdLevel resolve_level(const char* override_value, bool cpu_has_avx2,
                        bool cpu_has_avx512) {
  std::string v = override_value ? override_value : "";
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  const bool avx2_usable = avx2_ops() != nullptr && cpu_has_avx2;
  const bool avx512_usable =
      avx512_ops() != nullptr && cpu_has_avx2 && cpu_has_avx512;
  const SimdLevel best = avx512_usable ? SimdLevel::kAvx512
                         : avx2_usable ? SimdLevel::kAvx2
                                       : SimdLevel::kScalar;
  if (v == "off" || v == "scalar") return SimdLevel::kScalar;
  if (v == "avx2") {
    if (avx2_usable) return SimdLevel::kAvx2;
    CTJ_WARN(
        "CTJ_SIMD=avx2 requested but AVX2+FMA is unavailable on this "
        "build/CPU; falling back to scalar kernels");
    return SimdLevel::kScalar;
  }
  if (v == "avx512") {
    if (avx512_usable) return SimdLevel::kAvx512;
    CTJ_WARN("CTJ_SIMD=avx512 requested but AVX-512F is unavailable on this "
             "build/CPU; falling back to the best supported level");
    return best;
  }
  if (!v.empty()) {
    CTJ_WARN("unrecognized CTJ_SIMD value '"
             << v
             << "' (expected off, scalar, avx2 or avx512); auto-detecting");
  }
  return best;
}

SimdLevel active_level() {
  static const SimdLevel level = resolve_level(
      std::getenv("CTJ_SIMD"), cpu_supports_avx2(), cpu_supports_avx512());
  return level;
}

const KernelOps& ops() {
  switch (active_level()) {
    case SimdLevel::kAvx512:
      return *avx512_ops();
    case SimdLevel::kAvx2:
      return *avx2_ops();
    case SimdLevel::kScalar:
      break;
  }
  return scalar_ops();
}

const char* simd_level_name() { return ops().name; }

}  // namespace ctj::kern
