// Sparse LU with partial (magnitude) pivoting via row elimination, split
// into a one-time symbolic phase and a cheap numeric refactorization.
//
// Designed for MNA matrices of circuit netlists up to a few tens of
// thousands of unknowns: rows stay short (node degree + fill), so a
// scatter/gather row-combination with per-column candidate tracking is
// both simple and fast enough.
//
// The full factorization (factorize()/constructor) picks a fill-reducing
// column order and a threshold-pivoted row per stage from the numeric
// values, but records the elimination *structurally*: every structural
// entry in a pivot column is eliminated (even if its value happens to be
// zero right now) and fill positions are kept even when values cancel.
// That makes the recorded pattern, pivot order and operation schedule
// valid for ANY matrix with the same sparsity pattern, so a Newton loop
// can call refactorize() per iteration — a flat, allocation-free replay of
// the recorded schedule — instead of re-running the full analysis.
// refactorize() watches the reused pivots and reports failure when one
// degenerates, at which point the caller runs a fresh full factorization
// (which re-picks pivots from the new values).
//
// Both phases form every elimination factor as value × (1/pivot) and
// update with the same multiply-subtract, so refactorize() over the
// schedule a factorize() recorded reproduces that factorization bit for
// bit on the same values: a solve does not depend on which of the two
// produced its factors.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "linalg/SparseMatrix.h"

namespace nemtcam::linalg {

// Non-owning view of a square CSR matrix: per-row column indices sorted
// and unique. This is the hand-off format between the fixed-pattern MNA
// assembly cache and the LU, bypassing SparseMatrix entirely.
struct CsrView {
  std::size_t n = 0;
  const std::size_t* row_ptr = nullptr;  // n + 1 entries
  const std::size_t* cols = nullptr;     // row_ptr[n] entries
  const double* vals = nullptr;          // row_ptr[n] entries

  std::size_t nnz() const noexcept { return row_ptr ? row_ptr[n] : 0; }
};

class SparseLu {
 public:
  SparseLu() = default;
  // Factorizes; throws linalg::SingularMatrixError when a pivot column
  // has no usable entry. The SparseMatrix form serves one-shot solves
  // (sta::RcGraph); the circuit solver hands in CSR views.
  explicit SparseLu(SparseMatrix& a, double pivot_tol = 1e-30);
  explicit SparseLu(const CsrView& a, double pivot_tol = 1e-30);

  // Full symbolic + numeric factorization. Replaces any prior analysis.
  void factorize(const CsrView& a);

  // Numeric-only refactorization over the previously analyzed pattern.
  // `a` must have exactly the sparsity pattern of the matrix last passed
  // to factorize(). Returns false — leaving the factorization unusable
  // until the next factorize() — when the pattern differs or a reused
  // pivot degenerates (|pivot| below the absolute tolerance or vanishing
  // relative to its row).
  bool refactorize(const CsrView& a);

  std::vector<double> solve(const std::vector<double>& b) const;
  // In-place: b is consumed and overwritten with the solution.
  void solve_inplace(std::vector<double>& bx) const;
  // Raw-pointer variant over size() doubles, allocation-free after the
  // first call (the back-substitution scratch is a reused member, so
  // concurrent solves need distinct SparseLu objects).
  void solve_inplace(double* bx) const;

  // Total stored entries in U plus recorded L operations (fill metric).
  std::size_t fill_nnz() const noexcept { return u_cols_.size() + op_target_.size(); }

 private:
  std::size_t n_ = 0;
  double pivot_tol_ = 1e-30;
  bool factored_ = false;

  // U storage: final (post-fill) pattern of every physical row, flat CSR.
  // Values at columns eliminated from a row are exact zeros.
  std::vector<std::size_t> u_ptr_;   // n + 1
  std::vector<std::size_t> u_cols_;  // sorted per row
  std::vector<double> u_vals_;

  // Stage schedule (fixed by the symbolic phase).
  std::vector<std::size_t> pivot_of_stage_;  // stage k -> physical row
  std::vector<std::size_t> col_of_stage_;    // stage k -> eliminated column
  std::vector<std::size_t> diag_idx_;        // stage k -> index of the pivot
                                             //            value in u_vals_
  std::vector<std::size_t> stage_op_begin_;  // n + 1; ops of stage k are
                                             // [stage_op_begin_[k], [k+1])
  // Active pivot-row positions per stage (indices into u_vals_): columns
  // not yet eliminated when the row pivoted, minus the pivot column.
  std::vector<std::size_t> stage_src_begin_;  // n + 1
  std::vector<std::size_t> stage_src_;

  // Elimination operations, in schedule order. Op i subtracts
  // factor·pivot_row from target row op_target_[i]; the factor numerator
  // lives at u_vals_[op_factor_idx_[i]] and the scatter targets for the
  // pivot row's j-th entry at u_vals_[op_map_[op_map_begin_[i] + j]].
  std::vector<std::size_t> op_target_;
  std::vector<std::size_t> op_factor_idx_;
  std::vector<std::size_t> op_map_begin_;  // op count + 1
  std::vector<std::size_t> op_map_;
  std::vector<double> op_factor_;          // numeric factors (per refactor)

  // Copy of the analyzed input pattern, for refactorize() verification and
  // value scatter: input entry j lands at u_vals_[scatter_map_[j]].
  std::vector<std::size_t> in_row_ptr_;
  std::vector<std::size_t> in_cols_;
  std::vector<std::size_t> scatter_map_;

  mutable std::vector<double> x_scratch_;  // solve_inplace back-substitution
};

}  // namespace nemtcam::linalg
