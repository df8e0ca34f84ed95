// Runtime-dispatched SIMD kernel layer for the NN/DSP hot paths.
//
// Every kernel exists twice: a portable scalar reference — the same loops
// and accumulation order as the pre-kernel-layer implementations, compiled
// with FP contraction disabled so the arithmetic is plain IEEE mul/add and
// bit-identical across native and portable builds (the determinism
// baseline) — and an AVX2/FMA variant compiled into its own translation
// unit with -mavx2 -mfma so even a portable (-DCTJ_NATIVE=OFF) build
// carries the fast path and selects it at run time from CPUID. The AVX2 kernels preserve the
// scalar per-element accumulation *order* — register blocking only tiles the
// data-parallel dimensions — so the only numeric divergence from the scalar
// reference is FMA contraction (verified ULP-bounded by tests/test_kernels);
// row_max / row_argmax / bias_act contain no FMA and match bit for bit.
// The Adam update is not dispatched: its one loop is divide-bound and
// auto-vectorizes equally well at every level (see adam_update).
//
// Selection: CTJ_SIMD=off|scalar|avx2|avx512 overrides, otherwise the best
// level the CPU supports. The choice is resolved once, on first use, for the
// whole process — set the variable before the first kernel call.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ctj::kern {

/// Rows with at most this many nonzeros take the sparse paths of
/// matmul_a_bt_acc / matmul_at_b_acc.
inline constexpr std::size_t kSparseRowCap = 8;

enum class SimdLevel { kScalar, kAvx2, kAvx512 };

/// Inputs of the fused batched TD-target + Huber loss/grad kernel — the body
/// of DqnAgent::train_step after the forward passes. All matrices row-major.
struct TdHuberArgs {
  const double* q = nullptr;        // [batch × num_actions] online Q(s, ·)
  const double* next_q = nullptr;   // [batch × num_actions] target Q(s', ·)
  /// Online Q(s', ·) for Double-DQN action selection; nullptr for vanilla
  /// max-operator bootstrapping.
  const double* next_q_online = nullptr;
  const std::size_t* actions = nullptr;  // [batch] taken actions
  const double* rewards = nullptr;       // [batch] raw (unscaled) rewards
  const std::uint8_t* dones = nullptr;   // [batch] episode-termination flags
  double gamma = 0.9;
  double reward_scale = 1.0;
  /// Per-sample gradients are divided by this (the batch size, so the
  /// gradient matches the mean-loss objective).
  double grad_div = 1.0;
  double huber_delta = 1.0;
  std::size_t batch = 0;
  std::size_t num_actions = 0;
};

/// One resolved kernel set. All pointers are non-null.
struct KernelOps {
  const char* name;  // "scalar" | "avx2" | "avx512"

  /// C += A·B over row-major buffers (callers zero C for a plain product).
  /// Per-element accumulation runs over k in increasing order.
  void (*matmul_acc)(double* c, const double* a, const double* b,
                     std::size_t m, std::size_t k, std::size_t n);

  /// C[m×n] += A[m×k]·B[n×k]ᵀ — a linear layer's input gradient
  /// grad_out·Wᵀ. When every A row has at most kSparseRowCap nonzeros (the
  /// DQN's one-hot TD gradient) each C row is built from the B columns of
  /// those nonzeros, with no transposed copy of B; otherwise Bᵀ is packed
  /// once into scratch and matmul_acc runs. Per-element accumulation runs over k in
  /// increasing order and skips exact zeros, like matmul_acc.
  void (*matmul_a_bt_acc)(double* c, const double* a, const double* b,
                          std::size_t m, std::size_t k, std::size_t n);

  /// C[k×n] += A[m×k]ᵀ·B[m×n] — a linear layer's weight gradient
  /// inputᵀ·grad_out. When every B row has at most kSparseRowCap nonzeros,
  /// only their columns of C are updated; otherwise Aᵀ (a small [k×m]
  /// block) is transposed once and matmul_acc runs. Per-element accumulation runs over m in increasing order.
  void (*matmul_at_b_acc)(double* c, const double* a, const double* b,
                          std::size_t m, std::size_t k, std::size_t n);

  /// y += a·x over n doubles.
  void (*saxpy)(std::size_t n, double a, const double* x, double* y);

  /// Row-broadcast bias add, optionally fused with ReLU:
  /// y[r][c] += bias[c], then y = max(y, 0) when relu is set.
  void (*bias_act)(double* y, const double* bias, std::size_t rows,
                   std::size_t cols, bool relu);

  /// Maximum of a non-empty array (order-independent, bit-exact across
  /// kernel levels for non-NaN input).
  double (*row_max)(const double* x, std::size_t n);

  /// Index of the maximum, first on ties (matches ctj::argmax).
  std::size_t (*row_argmax)(const double* x, std::size_t n);

  /// Fused TD target + Huber loss/gradient over a minibatch. Writes the
  /// clipped gradients into `grad` (pre-zeroed [batch × num_actions]; only
  /// the taken-action entries are touched) and returns the summed Huber
  /// loss (callers divide by the batch size for the mean).
  double (*td_huber_batch)(const TdHuberArgs& args, double* grad);

  /// One hard-decision add-compare-select step over the 64-state K=7
  /// convolutional trellis in butterfly order. For next state ns the two
  /// predecessors are 2·(ns & 31) and 2·(ns & 31)+1, so
  ///   next[ns] = min(metric[2j] + cost0[ns], metric[2j+1] + cost1[ns])
  /// with ties to the even predecessor; bit ns of *chosen is set when the
  /// odd predecessor wins strictly. cost0/cost1 are 64-entry per-next-state
  /// branch-cost tables the caller precomputes from the received pair.
  /// Integer adds, so every level is bit-exact with the scalar reference.
  void (*viterbi_acs_hard)(const std::int32_t* metric,
                           const std::int32_t* cost0,
                           const std::int32_t* cost1, std::int32_t* next,
                           std::uint64_t* chosen);

  /// Soft-metric (double) flavor of the same butterfly step. One correctly
  /// rounded add per candidate and a min — no reductions, no FMA — so every
  /// level is bit-exact with the scalar reference.
  void (*viterbi_acs_soft)(const double* metric, const double* cost0,
                           const double* cost1, double* next,
                           std::uint64_t* chosen);

  /// Σ_i |α·Q(z_i) − z_i|² where Q snaps each component of z_i/(α·norm) to
  /// the nearest odd level in {±1,±3,±5,±7} and scales back by norm·α — the
  /// 64-QAM nearest-point error of Eq. (1). `iq` holds n interleaved
  /// (re, im) pairs. The scalar level reproduces the Qam64::quantize-based
  /// loop bit for bit (left-to-right accumulation, std::round snapping);
  /// SIMD levels reassociate the sum across lanes and are tolerance-bound
  /// only, like matmul.
  double (*qam64_error)(const double* iq, std::size_t n, double alpha,
                        double norm);
};

/// The portable reference kernels (always available).
const KernelOps& scalar_ops();

/// The AVX2/FMA kernels, or nullptr when the build targets a non-x86
/// architecture or the compiler cannot emit AVX2.
const KernelOps* avx2_ops();

/// The AVX-512 kernels (matmul/saxpy widened to 512 bits, the rest shared
/// with the AVX2 table), or nullptr when unavailable at build time.
const KernelOps* avx512_ops();

/// True when the CPU this process runs on supports AVX2 and FMA.
bool cpu_supports_avx2();

/// True when the CPU this process runs on supports AVX-512F (and AVX2+FMA).
bool cpu_supports_avx512();

/// Pure resolver (exposed for tests): pick a level from the CTJ_SIMD
/// override string (nullptr/empty = auto) and the CPU capabilities.
SimdLevel resolve_level(const char* override_value, bool cpu_has_avx2,
                        bool cpu_has_avx512);

/// The process-wide kernel set: resolved once from CTJ_SIMD + CPUID.
const KernelOps& ops();

/// One Adam update over n parameters, with both bias corrections folded
/// into per-step scalars:
///   m ← β₁m + (1−β₁)g,  v ← β₂v + ((1−β₂)g)g,
///   p ← p − (lr/bc1)·m / (√v·(1/√bc2) + ε),
/// the standard equivalent of lr·(m/bc1)/(√(v/bc2) + ε) with one divide and
/// one square root per parameter (bc1 = 1−β₁ᵗ, bc2 = 1−β₂ᵗ). A moment whose
/// magnitude falls below DBL_MIN is stored as +0: a moment fed zero
/// gradients (a dead ReLU unit) decays into subnormals, where 0.9·k·2⁻¹⁰⁷⁴
/// rounds back to k·2⁻¹⁰⁷⁴ and it would stay forever, slowing every later
/// step with subnormal arithmetic. Flushing m moves a weight by under
/// (lr/bc1)·DBL_MIN/ε and flushing v moves √v by under 1.5e-154, so with
/// the default ε the weights keep every bit unless they are themselves
/// near DBL_MIN. NaN still propagates. Not a dispatched kernel: one
/// implementation, compiled without FP contraction and with no branch, so
/// the auto-vectorized and the scalar loop give the same bits.
void adam_update(double* p, double* m, double* v, const double* g,
                 std::size_t n, double beta1, double beta2, double lr,
                 double bc1, double bc2, double epsilon);

SimdLevel active_level();
/// Name of the active level ("scalar", "avx2" or "avx512") — stamped into
/// perf JSON.
const char* simd_level_name();

}  // namespace ctj::kern
