// AVX2/FMA kernel set. This translation unit is compiled with -mavx2 -mfma
// regardless of the global architecture flags, so even a portable
// (-DCTJ_NATIVE=OFF) binary carries these paths; kern::ops() only selects
// them when CPUID reports AVX2+FMA at run time.
//
// Numerics: the matmul/saxpy kernels contract multiply-add into FMA (one
// rounding instead of two) while keeping the scalar k-accumulation order, so
// they are ULP-close but not bit-identical to the scalar reference. The
// max/argmax reductions and bias_act contain no FMA (max is
// order-independent for non-NaN input), so those kernels are bit-exact
// against the scalar level.
#include "common/kernels.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>

#include "common/kernels_detail.hpp"

namespace ctj::kern {
namespace {

// Register-blocked compressed-nonzero C += A·B. Each A row of the current
// chunk is packed once into a (value, k-index) list of its nonzeros — a
// branchless pass, so the ~half-zero ReLU activation rows that made a
// data-dependent `if (aik == 0.0) continue` mispredict catastrophically cost
// nothing here — and the FMA loops then run over the packed list only. That
// skips exactly the entries the scalar reference skips (one-hot DQN output
// gradients stay bit-exact) and halves both FMAs and B-row loads on ReLU
// activations. The FMA body keeps a 32-wide stripe of one C row in eight ymm
// accumulators across the whole packed loop: eight independent dependency
// chains cover the FMA latency, and C traffic drops k-fold versus the
// load/store-per-k pattern the autovectorizer produces. Stripes stay in the
// outer loop so the touched B columns remain L1-resident while the row loop
// streams over them. Per C element the packed accumulation preserves the
// scalar k order, so results stay ULP-bounded against the scalar reference.
void matmul_acc_avx2(double* c, const double* a, const double* b,
                     std::size_t m, std::size_t kk, std::size_t n) {
  constexpr std::size_t kRowChunk = 32;
  static thread_local detail::MatmulScratch scratch;
  scratch.reserve_chunk(std::min(m, kRowChunk), kk);
  for (std::size_t i0 = 0; i0 < m; i0 += kRowChunk) {
    const std::size_t i1 = std::min(m, i0 + kRowChunk);
    for (std::size_t i = i0; i < i1; ++i) {
      scratch.cnt[i - i0] = static_cast<std::int32_t>(detail::pack_nonzeros(
          a + i * kk, kk, scratch.vals.data() + (i - i0) * kk,
          scratch.idx.data() + (i - i0) * kk));
    }
    std::size_t j0 = 0;
    for (; j0 + 32 <= n; j0 += 32) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double* v = scratch.vals.data() + (i - i0) * kk;
        const std::int32_t* ix = scratch.idx.data() + (i - i0) * kk;
        const std::size_t nnz = static_cast<std::size_t>(scratch.cnt[i - i0]);
        double* crow = c + i * n + j0;
        __m256d c0 = _mm256_loadu_pd(crow + 0);
        __m256d c1 = _mm256_loadu_pd(crow + 4);
        __m256d c2 = _mm256_loadu_pd(crow + 8);
        __m256d c3 = _mm256_loadu_pd(crow + 12);
        __m256d c4 = _mm256_loadu_pd(crow + 16);
        __m256d c5 = _mm256_loadu_pd(crow + 20);
        __m256d c6 = _mm256_loadu_pd(crow + 24);
        __m256d c7 = _mm256_loadu_pd(crow + 28);
        const double* bcol = b + j0;
        for (std::size_t t = 0; t < nnz; ++t) {
          const __m256d va = _mm256_set1_pd(v[t]);
          const double* brow = bcol + static_cast<std::size_t>(ix[t]) * n;
          c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 0), c0);
          c1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 4), c1);
          c2 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 8), c2);
          c3 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 12), c3);
          c4 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 16), c4);
          c5 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 20), c5);
          c6 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 24), c6);
          c7 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 28), c7);
        }
        _mm256_storeu_pd(crow + 0, c0);
        _mm256_storeu_pd(crow + 4, c1);
        _mm256_storeu_pd(crow + 8, c2);
        _mm256_storeu_pd(crow + 12, c3);
        _mm256_storeu_pd(crow + 16, c4);
        _mm256_storeu_pd(crow + 20, c5);
        _mm256_storeu_pd(crow + 24, c6);
        _mm256_storeu_pd(crow + 28, c7);
      }
    }
    for (; j0 + 8 <= n; j0 += 8) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double* v = scratch.vals.data() + (i - i0) * kk;
        const std::int32_t* ix = scratch.idx.data() + (i - i0) * kk;
        const std::size_t nnz = static_cast<std::size_t>(scratch.cnt[i - i0]);
        double* crow = c + i * n + j0;
        __m256d c0 = _mm256_loadu_pd(crow + 0);
        __m256d c1 = _mm256_loadu_pd(crow + 4);
        const double* bcol = b + j0;
        for (std::size_t t = 0; t < nnz; ++t) {
          const __m256d va = _mm256_set1_pd(v[t]);
          const double* brow = bcol + static_cast<std::size_t>(ix[t]) * n;
          c0 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 0), c0);
          c1 = _mm256_fmadd_pd(va, _mm256_loadu_pd(brow + 4), c1);
        }
        _mm256_storeu_pd(crow + 0, c0);
        _mm256_storeu_pd(crow + 4, c1);
      }
    }
    for (; j0 + 4 <= n; j0 += 4) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double* v = scratch.vals.data() + (i - i0) * kk;
        const std::int32_t* ix = scratch.idx.data() + (i - i0) * kk;
        const std::size_t nnz = static_cast<std::size_t>(scratch.cnt[i - i0]);
        double* crow = c + i * n + j0;
        __m256d c0 = _mm256_loadu_pd(crow);
        const double* bcol = b + j0;
        for (std::size_t t = 0; t < nnz; ++t) {
          c0 = _mm256_fmadd_pd(
              _mm256_set1_pd(v[t]),
              _mm256_loadu_pd(bcol + static_cast<std::size_t>(ix[t]) * n),
              c0);
        }
        _mm256_storeu_pd(crow, c0);
      }
    }
    if (j0 < n) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double* v = scratch.vals.data() + (i - i0) * kk;
        const std::int32_t* ix = scratch.idx.data() + (i - i0) * kk;
        const std::size_t nnz = static_cast<std::size_t>(scratch.cnt[i - i0]);
        double* crow = c + i * n;
        for (std::size_t j = j0; j < n; ++j) {
          double s = crow[j];
          for (std::size_t t = 0; t < nnz; ++t) {
            s = __builtin_fma(v[t], b[static_cast<std::size_t>(ix[t]) * n + j],
                              s);
          }
          crow[j] = s;
        }
      }
    }
  }
}

void saxpy_avx2(std::size_t n, double a, const double* x, double* y) {
  const __m256d va = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_pd(
        y + j, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + j),
                               _mm256_loadu_pd(y + j)));
    _mm256_storeu_pd(
        y + j + 4, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + j + 4),
                                   _mm256_loadu_pd(y + j + 4)));
  }
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(
        y + j, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + j),
                               _mm256_loadu_pd(y + j)));
  }
  for (; j < n; ++j) y[j] = __builtin_fma(a, x[j], y[j]);
}

// Single-pass fused bias + ReLU (the scalar reference makes two passes, as
// the pre-kernel MLP forward did). Plain add + max: no FMA, bit-exact
// against the scalar level.
void bias_act_avx2(double* y, const double* bias, std::size_t rows,
                   std::size_t cols, bool relu) {
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = y + r * cols;
    std::size_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      __m256d v =
          _mm256_add_pd(_mm256_loadu_pd(row + c), _mm256_loadu_pd(bias + c));
      if (relu) v = _mm256_max_pd(v, zero);
      _mm256_storeu_pd(row + c, v);
    }
    for (; c < cols; ++c) {
      double v = row[c] + bias[c];
      if (relu && v < 0.0) v = 0.0;
      row[c] = v;
    }
  }
}

double row_max_avx2(const double* x, std::size_t n) {
  if (n < 8) {
    double m = x[0];
    for (std::size_t j = 1; j < n; ++j) {
      if (x[j] > m) m = x[j];
    }
    return m;
  }
  __m256d m0 = _mm256_loadu_pd(x);
  __m256d m1 = _mm256_loadu_pd(x + 4);
  std::size_t j = 8;
  for (; j + 8 <= n; j += 8) {
    m0 = _mm256_max_pd(m0, _mm256_loadu_pd(x + j));
    m1 = _mm256_max_pd(m1, _mm256_loadu_pd(x + j + 4));
  }
  m0 = _mm256_max_pd(m0, m1);
  const __m128d lo = _mm256_castpd256_pd128(m0);
  const __m128d hi = _mm256_extractf128_pd(m0, 1);
  __m128d m2 = _mm_max_pd(lo, hi);
  m2 = _mm_max_sd(m2, _mm_unpackhi_pd(m2, m2));
  double m = _mm_cvtsd_f64(m2);
  for (; j < n; ++j) {
    if (x[j] > m) m = x[j];
  }
  return m;
}

// First index of the maximum: SIMD max reduction, then a compare+movemask
// scan for the first element equal to it (first-on-ties, like ctj::argmax).
std::size_t row_argmax_avx2(const double* x, std::size_t n) {
  if (n < 8) {
    std::size_t best = 0;
    for (std::size_t j = 1; j < n; ++j) {
      if (x[j] > x[best]) best = j;
    }
    return best;
  }
  const double m = row_max_avx2(x, n);
  const __m256d vm = _mm256_set1_pd(m);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(x + j), vm, _CMP_EQ_OQ));
    if (mask != 0) {
      return j + static_cast<std::size_t>(__builtin_ctz(
                     static_cast<unsigned>(mask)));
    }
  }
  for (; j < n; ++j) {
    if (x[j] == m) return j;
  }
  return 0;  // only reachable for NaN input; mirror the scalar fold
}

double td_huber_batch_avx2(const TdHuberArgs& args, double* grad) {
  return detail::td_huber_epilogue(args, grad, row_max_avx2, row_argmax_avx2);
}

// 64-state butterfly ACS, 8 next states per ymm. The 64 predecessors split
// into four 16-metric ranges; each range is deinterleaved once into an
// even/odd pair (permutevar + permute2x128) and reused by the two 8-state
// blocks that draw on it (ns and ns+32 share j = ns & 31). Integer adds and
// min_epi32 only, so the result is bit-exact with the scalar reference; the
// odd-wins mask comes from cmpgt(v0, v1), which matches the scalar strict
// `v1 < v0` tie-break.
void viterbi_acs_hard_avx2(const std::int32_t* metric,
                           const std::int32_t* cost0,
                           const std::int32_t* cost1, std::int32_t* next,
                           std::uint64_t* chosen) {
  const __m256i deint = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  __m256i even[4];
  __m256i odd[4];
  for (int k = 0; k < 4; ++k) {
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(metric + 16 * k));
    const __m256i b = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(metric + 16 * k + 8));
    const __m256i pa = _mm256_permutevar8x32_epi32(a, deint);
    const __m256i pb = _mm256_permutevar8x32_epi32(b, deint);
    even[k] = _mm256_permute2x128_si256(pa, pb, 0x20);
    odd[k] = _mm256_permute2x128_si256(pa, pb, 0x31);
  }
  std::uint64_t bits = 0;
  for (int b = 0; b < 8; ++b) {
    const __m256i v0 = _mm256_add_epi32(
        even[b & 3],
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cost0 + 8 * b)));
    const __m256i v1 = _mm256_add_epi32(
        odd[b & 3],
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cost1 + 8 * b)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(next + 8 * b),
                        _mm256_min_epi32(v0, v1));
    const unsigned mask = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(v0, v1))));
    bits |= static_cast<std::uint64_t>(mask) << (8 * b);
  }
  *chosen = bits;
}

// Double-metric flavor, 4 next states per ymm: deinterleave each 8-metric
// predecessor range via permute2f128 + unpack, plain adds and min_pd.
// min_pd(v1, v0) returns v0 on ties, matching the scalar even-wins rule,
// and _CMP_LT_OQ(v1, v0) is exactly the scalar `v1 < v0` chosen bit.
void viterbi_acs_soft_avx2(const double* metric, const double* cost0,
                           const double* cost1, double* next,
                           std::uint64_t* chosen) {
  __m256d even[8];
  __m256d odd[8];
  for (int k = 0; k < 8; ++k) {
    const __m256d a = _mm256_loadu_pd(metric + 8 * k);
    const __m256d b = _mm256_loadu_pd(metric + 8 * k + 4);
    const __m256d t0 = _mm256_permute2f128_pd(a, b, 0x20);
    const __m256d t1 = _mm256_permute2f128_pd(a, b, 0x31);
    even[k] = _mm256_unpacklo_pd(t0, t1);
    odd[k] = _mm256_unpackhi_pd(t0, t1);
  }
  std::uint64_t bits = 0;
  for (int b = 0; b < 16; ++b) {
    const __m256d v0 = _mm256_add_pd(even[b & 7], _mm256_loadu_pd(cost0 + 4 * b));
    const __m256d v1 = _mm256_add_pd(odd[b & 7], _mm256_loadu_pd(cost1 + 4 * b));
    _mm256_storeu_pd(next + 4 * b, _mm256_min_pd(v1, v0));
    const unsigned mask = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(v1, v0, _CMP_LT_OQ)));
    bits |= static_cast<std::uint64_t>(mask) << (4 * b);
  }
  *chosen = bits;
}

// Four components (two complex points) per iteration; re and im go through
// the identical snap, so no deinterleave is needed. floor(v + 0.5) replaces
// round-half-away (equal for the clamped v ≥ 0 range except exact-boundary
// ULP cases) and the four-lane accumulator reassociates the sum, so this
// level is tolerance-bound against the scalar reference, like matmul.
double qam64_error_avx2(const double* iq, std::size_t n, double alpha,
                        double norm) {
  const double scale = 1.0 / (alpha * norm);
  const std::size_t total = 2 * n;
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m256d vseven = _mm256_set1_pd(7.0);
  const __m256d vhalf = _mm256_set1_pd(0.5);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vtwo = _mm256_set1_pd(2.0);
  const __m256d vnorm_alpha = _mm256_set1_pd(norm * alpha);
  __m256d acc = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= total; j += 4) {
    const __m256d v = _mm256_loadu_pd(iq + j);
    const __m256d x =
        _mm256_mul_pd(_mm256_add_pd(_mm256_mul_pd(v, vscale), vseven), vhalf);
    __m256d slot = _mm256_floor_pd(_mm256_add_pd(x, vhalf));
    slot = _mm256_min_pd(_mm256_max_pd(slot, vzero), vseven);
    const __m256d level = _mm256_sub_pd(_mm256_mul_pd(slot, vtwo), vseven);
    const __m256d d = _mm256_sub_pd(_mm256_mul_pd(level, vnorm_alpha), v);
    acc = _mm256_fmadd_pd(d, d, acc);
  }
  const __m128d lo = _mm256_castpd256_pd128(acc);
  const __m128d hi = _mm256_extractf128_pd(acc, 1);
  __m128d sum2 = _mm_add_pd(lo, hi);
  sum2 = _mm_add_sd(sum2, _mm_unpackhi_pd(sum2, sum2));
  double err = _mm_cvtsd_f64(sum2);
  for (; j < total; ++j) {
    const double x = (iq[j] * scale + 7.0) * 0.5;
    double slot = __builtin_floor(x + 0.5);
    if (slot < 0.0) slot = 0.0;
    if (slot > 7.0) slot = 7.0;
    const double d = (slot * 2.0 - 7.0) * (norm * alpha) - iq[j];
    err += d * d;
  }
  return err;
}

}  // namespace

const KernelOps* avx2_ops() {
  static constexpr KernelOps kOps{
      "avx2",
      matmul_acc_avx2,
      detail::matmul_a_bt_acc<matmul_acc_avx2>,
      detail::matmul_at_b_acc<matmul_acc_avx2>,
      saxpy_avx2,
      bias_act_avx2,
      row_max_avx2,
      row_argmax_avx2,
      td_huber_batch_avx2,
      viterbi_acs_hard_avx2,
      viterbi_acs_soft_avx2,
      qam64_error_avx2,
  };
  return &kOps;
}

}  // namespace ctj::kern

#else  // !(__AVX2__ && __FMA__)

namespace ctj::kern {

const KernelOps* avx2_ops() { return nullptr; }

}  // namespace ctj::kern

#endif
