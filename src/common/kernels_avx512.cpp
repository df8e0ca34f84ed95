// AVX-512 kernel set. This translation unit is compiled with -mavx512f -mfma
// regardless of the global architecture flags; kern::ops() only selects it
// when CPUID reports AVX-512F (plus AVX2+FMA) at run time.
//
// Only the kernels where the 512-bit width actually pays are reimplemented:
// matmul_acc (the batched-forward bottleneck — doubling the FMA width
// doubles the compute roofline on machines whose 256-bit FMA throughput
// matches their L2 streaming bandwidth, which is exactly the regime where
// batched inference is otherwise compute-bound), saxpy, and the PHY hot-path
// kernels (Viterbi ACS hard/soft, 64-QAM quantization error) whose fixed
// 64-state / long-stream shapes fill full zmm lanes. Everything else
// (bias_act, reductions, TD/Huber) is inherited from the AVX2 table: those
// kernels are bandwidth-bound or tiny, so a wider vector buys nothing. The
// backward products (matmul_a_bt_acc / matmul_at_b_acc) are the shared
// bodies over this level's matmul_acc.
//
// Numerics match the AVX2 level's contract: FMA contraction only,
// per-element k-accumulation order unchanged and exact zeros skipped like
// the scalar reference, so results are ULP-bounded against it (and exact for
// one-hot rows).
#include "common/kernels.hpp"

#if defined(__AVX512F__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>

#include "common/kernels_detail.hpp"

namespace ctj::kern {
namespace {

void saxpy_avx512(std::size_t n, double a, const double* x, double* y) {
  const __m512d va = _mm512_set1_pd(a);
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    _mm512_storeu_pd(
        y + j, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + j),
                               _mm512_loadu_pd(y + j)));
    _mm512_storeu_pd(
        y + j + 8, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + j + 8),
                                   _mm512_loadu_pd(y + j + 8)));
  }
  for (; j + 8 <= n; j += 8) {
    _mm512_storeu_pd(
        y + j, _mm512_fmadd_pd(va, _mm512_loadu_pd(x + j),
                               _mm512_loadu_pd(y + j)));
  }
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(
        y + j, _mm256_fmadd_pd(_mm256_set1_pd(a), _mm256_loadu_pd(x + j),
                               _mm256_loadu_pd(y + j)));
  }
  for (; j < n; ++j) y[j] = __builtin_fma(a, x[j], y[j]);
}

// Same compressed-nonzero structure as the AVX2 matmul (branchless per-row
// nonzero packing, stripes-outer FMA body over the packed lists — see
// kernels_avx2.cpp for the full rationale) with 512-bit accumulators: a
// 64-wide stripe of one C row lives in eight zmm registers, so the eight
// independent FMA chains cover the FMA latency at twice the AVX2 width.
void matmul_acc_avx512(double* c, const double* a, const double* b,
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
    for (; j0 + 64 <= n; j0 += 64) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double* v = scratch.vals.data() + (i - i0) * kk;
        const std::int32_t* ix = scratch.idx.data() + (i - i0) * kk;
        const std::size_t nnz = static_cast<std::size_t>(scratch.cnt[i - i0]);
        double* crow = c + i * n + j0;
        __m512d c0 = _mm512_loadu_pd(crow + 0);
        __m512d c1 = _mm512_loadu_pd(crow + 8);
        __m512d c2 = _mm512_loadu_pd(crow + 16);
        __m512d c3 = _mm512_loadu_pd(crow + 24);
        __m512d c4 = _mm512_loadu_pd(crow + 32);
        __m512d c5 = _mm512_loadu_pd(crow + 40);
        __m512d c6 = _mm512_loadu_pd(crow + 48);
        __m512d c7 = _mm512_loadu_pd(crow + 56);
        const double* bcol = b + j0;
        for (std::size_t t = 0; t < nnz; ++t) {
          const __m512d va = _mm512_set1_pd(v[t]);
          const double* brow = bcol + static_cast<std::size_t>(ix[t]) * n;
          c0 = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 0), c0);
          c1 = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 8), c1);
          c2 = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 16), c2);
          c3 = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 24), c3);
          c4 = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 32), c4);
          c5 = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 40), c5);
          c6 = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 48), c6);
          c7 = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 56), c7);
        }
        _mm512_storeu_pd(crow + 0, c0);
        _mm512_storeu_pd(crow + 8, c1);
        _mm512_storeu_pd(crow + 16, c2);
        _mm512_storeu_pd(crow + 24, c3);
        _mm512_storeu_pd(crow + 32, c4);
        _mm512_storeu_pd(crow + 40, c5);
        _mm512_storeu_pd(crow + 48, c6);
        _mm512_storeu_pd(crow + 56, c7);
      }
    }
    for (; j0 + 32 <= n; j0 += 32) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double* v = scratch.vals.data() + (i - i0) * kk;
        const std::int32_t* ix = scratch.idx.data() + (i - i0) * kk;
        const std::size_t nnz = static_cast<std::size_t>(scratch.cnt[i - i0]);
        double* crow = c + i * n + j0;
        __m512d c0 = _mm512_loadu_pd(crow + 0);
        __m512d c1 = _mm512_loadu_pd(crow + 8);
        __m512d c2 = _mm512_loadu_pd(crow + 16);
        __m512d c3 = _mm512_loadu_pd(crow + 24);
        const double* bcol = b + j0;
        for (std::size_t t = 0; t < nnz; ++t) {
          const __m512d va = _mm512_set1_pd(v[t]);
          const double* brow = bcol + static_cast<std::size_t>(ix[t]) * n;
          c0 = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 0), c0);
          c1 = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 8), c1);
          c2 = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 16), c2);
          c3 = _mm512_fmadd_pd(va, _mm512_loadu_pd(brow + 24), c3);
        }
        _mm512_storeu_pd(crow + 0, c0);
        _mm512_storeu_pd(crow + 8, c1);
        _mm512_storeu_pd(crow + 16, c2);
        _mm512_storeu_pd(crow + 24, c3);
      }
    }
    for (; j0 + 8 <= n; j0 += 8) {
      for (std::size_t i = i0; i < i1; ++i) {
        const double* v = scratch.vals.data() + (i - i0) * kk;
        const std::int32_t* ix = scratch.idx.data() + (i - i0) * kk;
        const std::size_t nnz = static_cast<std::size_t>(scratch.cnt[i - i0]);
        double* crow = c + i * n + j0;
        __m512d c0 = _mm512_loadu_pd(crow);
        const double* bcol = b + j0;
        for (std::size_t t = 0; t < nnz; ++t) {
          c0 = _mm512_fmadd_pd(
              _mm512_set1_pd(v[t]),
              _mm512_loadu_pd(bcol + static_cast<std::size_t>(ix[t]) * n),
              c0);
        }
        _mm512_storeu_pd(crow, c0);
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

// 16 next states per zmm, the whole 64-state butterfly in four blocks. The
// even/odd predecessor deinterleave is a single permutex2var over two
// 16-metric ranges; blocks 0/2 draw on metric[0..31], blocks 1/3 on
// metric[32..63] (j = ns & 31). Integer adds and min_epi32 keep the result
// bit-exact with the scalar reference; cmpgt_epi32_mask(v0, v1) is the
// scalar strict `v1 < v0` odd-wins bit.
void viterbi_acs_hard_avx512(const std::int32_t* metric,
                             const std::int32_t* cost0,
                             const std::int32_t* cost1, std::int32_t* next,
                             std::uint64_t* chosen) {
  const __m512i idx_even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16,
                                             18, 20, 22, 24, 26, 28, 30);
  const __m512i idx_odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17,
                                            19, 21, 23, 25, 27, 29, 31);
  const __m512i m0 =
      _mm512_loadu_si512(reinterpret_cast<const void*>(metric));
  const __m512i m1 =
      _mm512_loadu_si512(reinterpret_cast<const void*>(metric + 16));
  const __m512i m2 =
      _mm512_loadu_si512(reinterpret_cast<const void*>(metric + 32));
  const __m512i m3 =
      _mm512_loadu_si512(reinterpret_cast<const void*>(metric + 48));
  const __m512i even[2] = {_mm512_permutex2var_epi32(m0, idx_even, m1),
                           _mm512_permutex2var_epi32(m2, idx_even, m3)};
  const __m512i odd[2] = {_mm512_permutex2var_epi32(m0, idx_odd, m1),
                          _mm512_permutex2var_epi32(m2, idx_odd, m3)};
  std::uint64_t bits = 0;
  for (int b = 0; b < 4; ++b) {
    const __m512i v0 = _mm512_add_epi32(
        even[b & 1], _mm512_loadu_si512(
                         reinterpret_cast<const void*>(cost0 + 16 * b)));
    const __m512i v1 = _mm512_add_epi32(
        odd[b & 1], _mm512_loadu_si512(
                        reinterpret_cast<const void*>(cost1 + 16 * b)));
    _mm512_storeu_si512(reinterpret_cast<void*>(next + 16 * b),
                        _mm512_min_epi32(v0, v1));
    const std::uint64_t mask = _mm512_cmpgt_epi32_mask(v0, v1);
    bits |= mask << (16 * b);
  }
  *chosen = bits;
}

// Double-metric flavor, 8 next states per zmm over 8 blocks; four
// permutex2var even/odd pairs each cover a 16-metric predecessor range.
// Plain adds and min_pd(v1, v0) (ties return v0 — the even predecessor)
// keep every level bit-exact with the scalar reference.
void viterbi_acs_soft_avx512(const double* metric, const double* cost0,
                             const double* cost1, double* next,
                             std::uint64_t* chosen) {
  const __m512i idx_even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i idx_odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  __m512d even[4];
  __m512d odd[4];
  for (int k = 0; k < 4; ++k) {
    const __m512d a = _mm512_loadu_pd(metric + 16 * k);
    const __m512d b = _mm512_loadu_pd(metric + 16 * k + 8);
    even[k] = _mm512_permutex2var_pd(a, idx_even, b);
    odd[k] = _mm512_permutex2var_pd(a, idx_odd, b);
  }
  std::uint64_t bits = 0;
  for (int b = 0; b < 8; ++b) {
    const __m512d v0 =
        _mm512_add_pd(even[b & 3], _mm512_loadu_pd(cost0 + 8 * b));
    const __m512d v1 =
        _mm512_add_pd(odd[b & 3], _mm512_loadu_pd(cost1 + 8 * b));
    _mm512_storeu_pd(next + 8 * b, _mm512_min_pd(v1, v0));
    const std::uint64_t mask = _mm512_cmp_pd_mask(v1, v0, _CMP_LT_OQ);
    bits |= mask << (8 * b);
  }
  *chosen = bits;
}

// Eight components (four complex points) per iteration; same
// floor(v + 0.5) snap and lane-reassociated accumulator as the AVX2 level,
// so tolerance-bound against the scalar reference.
double qam64_error_avx512(const double* iq, std::size_t n, double alpha,
                          double norm) {
  const double scale = 1.0 / (alpha * norm);
  const std::size_t total = 2 * n;
  const __m512d vscale = _mm512_set1_pd(scale);
  const __m512d vseven = _mm512_set1_pd(7.0);
  const __m512d vhalf = _mm512_set1_pd(0.5);
  const __m512d vzero = _mm512_setzero_pd();
  const __m512d vtwo = _mm512_set1_pd(2.0);
  const __m512d vnorm_alpha = _mm512_set1_pd(norm * alpha);
  __m512d acc = _mm512_setzero_pd();
  std::size_t j = 0;
  for (; j + 8 <= total; j += 8) {
    const __m512d v = _mm512_loadu_pd(iq + j);
    const __m512d x =
        _mm512_mul_pd(_mm512_add_pd(_mm512_mul_pd(v, vscale), vseven), vhalf);
    __m512d slot = _mm512_roundscale_pd(
        _mm512_add_pd(x, vhalf), _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    slot = _mm512_min_pd(_mm512_max_pd(slot, vzero), vseven);
    const __m512d level = _mm512_sub_pd(_mm512_mul_pd(slot, vtwo), vseven);
    const __m512d d = _mm512_sub_pd(_mm512_mul_pd(level, vnorm_alpha), v);
    acc = _mm512_fmadd_pd(d, d, acc);
  }
  double err = _mm512_reduce_add_pd(acc);
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

const KernelOps* avx512_ops() {
  const KernelOps* base = avx2_ops();
  if (base == nullptr) return nullptr;
  static const KernelOps kOps = [base] {
    KernelOps ops = *base;  // inherit bias_act/reductions/td_huber
    ops.name = "avx512";
    ops.matmul_acc = matmul_acc_avx512;
    ops.matmul_a_bt_acc = detail::matmul_a_bt_acc<matmul_acc_avx512>;
    ops.matmul_at_b_acc = detail::matmul_at_b_acc<matmul_acc_avx512>;
    ops.saxpy = saxpy_avx512;
    ops.viterbi_acs_hard = viterbi_acs_hard_avx512;
    ops.viterbi_acs_soft = viterbi_acs_soft_avx512;
    ops.qam64_error = qam64_error_avx512;
    return ops;
  }();
  return &kOps;
}

}  // namespace ctj::kern

#else  // !(__AVX512F__ && __FMA__)

namespace ctj::kern {

const KernelOps* avx512_ops() { return nullptr; }

}  // namespace ctj::kern

#endif
