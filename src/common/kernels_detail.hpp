// Shared bodies for the kernel layer, included by the scalar and the SIMD
// translation units so the levels differ only in the vectorized primitives,
// never in the surrounding arithmetic. Everything here has internal linkage:
// each TU compiles its own copy with its own ISA flags, and the linker must
// not fold the AVX-512 TU's copy into the scalar level (which has to run on
// any x86-64 CPU).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/kernels.hpp"

namespace ctj::kern::detail {
namespace {

// Per-thread packing scratch for the compressed-nonzero matmul: one
// (value, k-index) list per A row of the current row chunk. Thread-local in
// the SIMD TUs so concurrent sweep workers never share buffers; the vectors
// only ever grow, so steady-state calls are allocation-free.
struct MatmulScratch {
  std::vector<double> vals;
  std::vector<std::int32_t> idx;
  std::vector<std::int32_t> cnt;

  void reserve_chunk(std::size_t rows, std::size_t kk) {
    if (vals.size() < rows * kk) {
      vals.resize(rows * kk);
      idx.resize(rows * kk);
    }
    if (cnt.size() < rows) cnt.resize(rows);
  }
};

// Branchless pack of a row's nonzero entries (value + k index) into v/ix.
// Every slot is written, but the cursor only advances past nonzeros, so the
// packed prefix skips exactly the entries the scalar reference's
// `if (aik == 0.0) continue` skips — with no data-dependent branch for the
// predictor to miss on ~half-zero ReLU activations.
inline std::size_t pack_nonzeros(const double* arow, std::size_t kk,
                                 double* v, std::int32_t* ix) {
  std::size_t t = 0;
  for (std::size_t k = 0; k < kk; ++k) {
    v[t] = arow[k];
    ix[t] = static_cast<std::int32_t>(k);
    t += arow[k] != 0.0 ? 1 : 0;
  }
  return t;
}

// The nonzeros of a matrix whose rows each hold at most kSparseRowCap of
// them, as one (row, col, val) list in row-major order.
struct SparseRows {
  std::vector<std::uint32_t> row;
  std::vector<std::uint32_t> col;
  std::vector<double> val;
  std::size_t size = 0;
};

// Fills `out` from the [rows × cols] matrix x and returns true, or returns
// false as soon as a row turns out to hold more than kSparseRowCap
// nonzeros. Columns are tested eight at a time by OR-ing their bit
// patterns without the sign bit (a vectorizable reduction; −0 counts as
// zero, NaN as nonzero), so the all-zero stretches of a one-hot row cost
// one branch per block.
inline bool compress_sparse_rows(const double* x, std::size_t rows,
                                 std::size_t cols, SparseRows& out) {
  if (out.val.size() < rows * kSparseRowCap) {
    out.row.resize(rows * kSparseRowCap);
    out.col.resize(rows * kSparseRowCap);
    out.val.resize(rows * kSparseRowCap);
  }
  std::size_t n = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* xr = x + r * cols;
    const std::size_t row_end = n + kSparseRowCap;
    auto take = [&](std::size_t k) {
      if (xr[k] == 0.0) return true;
      if (n == row_end) return false;
      out.row[n] = static_cast<std::uint32_t>(r);
      out.col[n] = static_cast<std::uint32_t>(k);
      out.val[n] = xr[k];
      ++n;
      return true;
    };
    std::size_t k0 = 0;
    for (; k0 + 8 <= cols; k0 += 8) {
      std::uint64_t bits = 0;
      for (std::size_t u = 0; u < 8; ++u) {
        bits |= std::bit_cast<std::uint64_t>(xr[k0 + u]) << 1;
      }
      if (bits == 0) continue;
      for (std::size_t u = 0; u < 8; ++u) {
        if (!take(k0 + u)) return false;
      }
    }
    for (; k0 < cols; ++k0) {
      if (!take(k0)) return false;
    }
  }
  out.size = n;
  return true;
}

// dst[c][r] = src[r][c] for a row-major [rows × cols] src.
inline void transpose(const double* src, std::size_t rows, std::size_t cols,
                      double* dst) {
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  }
}

// C[m×n] += A[m×kk]·B[n×kk]ᵀ (see KernelOps::matmul_a_bt_acc). The sparse
// path adds, for each nonzero of an A row in increasing k, the scaled
// column k of B, so every element sums its terms in the same order as
// matmul_acc over a transposed B, and a one-hot row (one rounding per
// element) matches it bit for bit at every level.
template <auto matmul_acc>
void matmul_a_bt_acc(double* c, const double* a, const double* b,
                     std::size_t m, std::size_t kk, std::size_t n) {
  static thread_local SparseRows sparse;
  if (compress_sparse_rows(a, m, kk, sparse)) {
    for (std::size_t e = 0; e < sparse.size; ++e) {
      double* crow = c + sparse.row[e] * n;
      const double* bcol = b + sparse.col[e];
      const double v = sparse.val[e];
      for (std::size_t j = 0; j < n; ++j) crow[j] += v * bcol[j * kk];
    }
    return;
  }
  static thread_local std::vector<double> bt;
  if (bt.size() < kk * n) bt.resize(kk * n);
  transpose(b, n, kk, bt.data());
  matmul_acc(c, a, bt.data(), m, kk, n);
}

// C[kk×n] += A[m×kk]ᵀ·B[m×n] (see KernelOps::matmul_at_b_acc). Both paths
// accumulate each element over the m rows in increasing order. The sparse
// path runs C row by row (one row stays in L1 while the list of B's
// nonzeros, in row order, updates it) and adds the ±0 terms of zero A entries without a branch
// (ReLU activations are about half zeros); a ±0 term could only turn a −0
// in C into +0, and a C that starts at +0 never holds −0, so the result
// matches the zero-skipping dense path.
template <auto matmul_acc>
void matmul_at_b_acc(double* c, const double* a, const double* b,
                     std::size_t m, std::size_t kk, std::size_t n) {
  static thread_local SparseRows sparse;
  if (compress_sparse_rows(b, m, n, sparse)) {
    for (std::size_t i = 0; i < kk; ++i) {
      double* crow = c + i * n;
      for (std::size_t e = 0; e < sparse.size; ++e) {
        crow[sparse.col[e]] += a[sparse.row[e] * kk + i] * sparse.val[e];
      }
    }
    return;
  }
  static thread_local std::vector<double> at;
  if (at.size() < kk * m) at.resize(kk * m);
  transpose(a, m, kk, at.data());
  matmul_acc(c, at.data(), b, kk, m, n);
}

// Huber derivative/objective for a scalar TD error — same arithmetic as
// rl::huber_grad / rl::huber_loss, restated here so the kernel layer stays
// below the RL library in the dependency order.
inline double huber_grad(double error, double delta) {
  if (error > delta) return delta;
  if (error < -delta) return -delta;
  return error;
}

inline double huber_loss(double error, double delta) {
  const double abs_error = error < 0.0 ? -error : error;
  if (abs_error <= delta) return 0.5 * error * error;
  return delta * (abs_error - 0.5 * delta);
}

// The per-row epilogue of the fused TD + Huber kernel. The row reductions
// (the O(batch × num_actions) part) are the injected primitives; everything
// after them is a handful of scalar ops per row, written identically in both
// levels so a level switch can only move results through the reductions.
template <typename RowMaxFn, typename RowArgmaxFn>
double td_huber_epilogue(const TdHuberArgs& a, double* grad, RowMaxFn row_max,
                         RowArgmaxFn row_argmax) {
  const std::size_t A = a.num_actions;
  double loss = 0.0;
  for (std::size_t i = 0; i < a.batch; ++i) {
    const double* nq = a.next_q + i * A;
    double max_next;
    if (a.next_q_online != nullptr) {
      // Double-DQN: the online network selects the bootstrap action, the
      // target network evaluates it.
      max_next = nq[row_argmax(a.next_q_online + i * A, A)];
    } else {
      max_next = row_max(nq, A);
    }
    const double r = a.rewards[i] * a.reward_scale;
    const double target = a.dones[i] ? r : r + a.gamma * max_next;
    const double error = a.q[i * A + a.actions[i]] - target;
    loss += huber_loss(error, a.huber_delta);
    grad[i * A + a.actions[i]] = huber_grad(error, a.huber_delta) / a.grad_div;
  }
  return loss;
}

}  // namespace
}  // namespace ctj::kern::detail
