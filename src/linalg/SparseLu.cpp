#include "linalg/SparseLu.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "linalg/SingularMatrixError.h"

namespace nemtcam::linalg {

namespace {

// Relative floor for reused pivots: a pivot that shrinks below this
// fraction of the largest surviving entry in its row has lost the
// stability the original threshold pivoting bought, so the caller must
// re-pivot with a full factorization.
constexpr double kRefactorRelTol = 1e-12;

}  // namespace

SparseLu::SparseLu(SparseMatrix& a, double pivot_tol) : pivot_tol_(pivot_tol) {
  NEMTCAM_EXPECT(a.rows() == a.cols());
  const auto& rows = a.rows_view();
  std::vector<std::size_t> row_ptr(rows.size() + 1, 0);
  std::vector<std::size_t> cols;
  std::vector<double> vals;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (const auto& [c, v] : rows[r]) {
      cols.push_back(c);
      vals.push_back(v);
    }
    row_ptr[r + 1] = cols.size();
  }
  factorize(CsrView{rows.size(), row_ptr.data(), cols.data(), vals.data()});
}

SparseLu::SparseLu(const CsrView& a, double pivot_tol) : pivot_tol_(pivot_tol) {
  factorize(a);
}

void SparseLu::factorize(const CsrView& a) {
  n_ = a.n;
  factored_ = false;

  // Keep the analyzed pattern: refactorize() verifies against it and uses
  // scatter_map_ to drop new values into the fill-extended U storage.
  in_row_ptr_.assign(a.row_ptr, a.row_ptr + n_ + 1);
  in_cols_.assign(a.cols, a.cols + a.nnz());

  // Working rows, mutated in place by the elimination below.
  std::vector<std::vector<std::pair<std::size_t, double>>> rows(n_);
  for (std::size_t r = 0; r < n_; ++r) {
    rows[r].reserve(a.row_ptr[r + 1] - a.row_ptr[r]);
    for (std::size_t j = a.row_ptr[r]; j < a.row_ptr[r + 1]; ++j)
      rows[r].emplace_back(a.cols[j], a.vals[j]);
  }

  // col_candidates[c]: physical rows that structurally hold an entry in
  // column c (stale once the row pivots; validated on use). Fill-ins push
  // new candidates. Unlike a value-driven analysis, entries whose value is
  // currently zero still count — the schedule must stay valid for any
  // numeric refill of the same pattern.
  std::vector<std::vector<std::size_t>> col_candidates(n_);
  for (std::size_t r = 0; r < n_; ++r)
    for (const auto& [c, v] : rows[r]) {
      (void)v;
      col_candidates[c].push_back(r);
    }

  std::vector<bool> is_pivot(n_, false);
  pivot_of_stage_.assign(n_, 0);

  // Static fill-reducing column order: eliminate sparse columns first
  // (approximate minimum degree). Without this, a dense supply/ground-rail
  // column eliminated early couples every attached row and the
  // factorization goes quadratic.
  col_of_stage_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) col_of_stage_[i] = i;
  std::sort(col_of_stage_.begin(), col_of_stage_.end(),
            [&](std::size_t x, std::size_t y) {
              const auto dx = col_candidates[x].size();
              const auto dy = col_candidates[y].size();
              if (dx != dy) return dx < dy;
              return x < y;
            });

  // Scatter workspace for row combination.
  std::vector<double> work(n_, 0.0);
  std::vector<bool> touched(n_, false);
  std::vector<std::size_t> touched_cols;
  touched_cols.reserve(64);

  auto value_at = [&](std::size_t row, std::size_t col) -> double {
    const auto& entries = rows[row];
    auto it = std::lower_bound(
        entries.begin(), entries.end(), col,
        [](const auto& e, std::size_t c) { return e.first < c; });
    if (it != entries.end() && it->first == col) return it->second;
    return 0.0;
  };

  // eliminated[c]: true once column c's stage has run (used to know which
  // entries in a pivot row are still "active" for fill bookkeeping — the
  // inactive ones hold exact zeros and are skipped).
  std::vector<bool> eliminated(n_, false);

  // Schedule recording. Targets and factors go straight to members; the
  // scatter maps are resolved to flat indices after the patterns settle.
  op_target_.clear();
  op_factor_.clear();
  stage_op_begin_.assign(n_ + 1, 0);
  diag_idx_.assign(n_, 0);

  for (std::size_t stage = 0; stage < n_; ++stage) {
    const std::size_t k = col_of_stage_[stage];
    stage_op_begin_[stage] = op_target_.size();
    // Threshold pivoting with sparsity preference (Markowitz-style): among
    // candidates whose magnitude is within `threshold` of the column max,
    // pick the shortest row — this keeps fill near-linear on circuit
    // matrices while preserving numerical stability.
    constexpr double threshold = 0.1;
    auto& cands = col_candidates[k];
    double max_mag = 0.0;
    std::size_t out = 0;
    for (std::size_t idx = 0; idx < cands.size(); ++idx) {
      const std::size_t r = cands[idx];
      if (is_pivot[r]) continue;
      cands[out++] = r;  // structurally valid; kept for the elimination pass
      max_mag = std::max(max_mag, std::fabs(value_at(r, k)));
    }
    cands.resize(out);
    if (cands.empty() || max_mag < pivot_tol_)
      throw SingularMatrixError("SparseLu: singular at column " + std::to_string(k));
    std::size_t best_row = n_;
    std::size_t best_len = std::numeric_limits<std::size_t>::max();
    double best_mag = 0.0;
    for (const std::size_t r : cands) {
      const double mag = std::fabs(value_at(r, k));
      if (mag < threshold * max_mag) continue;
      const std::size_t len = rows[r].size();
      if (len < best_len || (len == best_len && mag > best_mag)) {
        best_len = len;
        best_row = r;
        best_mag = mag;
      }
    }
    NEMTCAM_ENSURE(best_row != n_);

    is_pivot[best_row] = true;
    pivot_of_stage_[stage] = best_row;
    eliminated[k] = true;
    const auto& pivot_entries = rows[best_row];
    // The factor is value × (1/pivot), the expression refactorize() uses,
    // so a refactorization over this schedule reproduces this
    // factorization bit for bit.
    const double inv = 1.0 / value_at(best_row, k);

    // Eliminate column k from every other structurally valid candidate row.
    for (const std::size_t r : cands) {
      if (r == best_row) continue;
      const double factor = value_at(r, k) * inv;
      op_target_.push_back(r);
      op_factor_.push_back(factor);

      // row_r -= factor * pivot_row (scatter/gather). The eliminated
      // column keeps its slot as an exact zero so the schedule can reuse
      // it as the factor position; entries the pivot row holds at columns
      // of earlier stages are exact zeros and skipped.
      auto& row = rows[r];
      touched_cols.clear();
      for (const auto& [c, v] : row) {
        work[c] = v;
        touched[c] = true;
        touched_cols.push_back(c);
      }
      for (const auto& [c, v] : pivot_entries) {
        if (eliminated[c] && c != k) continue;
        if (!touched[c]) {
          work[c] = 0.0;
          touched[c] = true;
          touched_cols.push_back(c);
          if (!eliminated[c]) col_candidates[c].push_back(r);  // fill-in
        }
        work[c] -= factor * v;
      }
      std::sort(touched_cols.begin(), touched_cols.end());
      row.clear();
      for (const std::size_t c : touched_cols) {
        // Structural slots survive numeric cancellation; only the pivot
        // column is forced to an exact zero.
        row.emplace_back(c, c == k ? 0.0 : work[c]);
        touched[c] = false;
      }
    }
  }
  stage_op_begin_[n_] = op_target_.size();

  // Flatten the final row patterns into CSR-style U storage.
  u_ptr_.assign(n_ + 1, 0);
  u_cols_.clear();
  u_vals_.clear();
  for (std::size_t r = 0; r < n_; ++r) {
    for (const auto& [c, v] : rows[r]) {
      u_cols_.push_back(c);
      u_vals_.push_back(v);
    }
    u_ptr_[r + 1] = u_cols_.size();
  }

  auto u_index = [&](std::size_t row, std::size_t col) -> std::size_t {
    const auto first = u_cols_.begin() + static_cast<std::ptrdiff_t>(u_ptr_[row]);
    const auto last = u_cols_.begin() + static_cast<std::ptrdiff_t>(u_ptr_[row + 1]);
    const auto it = std::lower_bound(first, last, col);
    NEMTCAM_ENSURE(it != last && *it == col);
    return static_cast<std::size_t>(it - u_cols_.begin());
  };

  // stage_of_col: stage at which each column was eliminated — tells which
  // pivot-row entries are active (hold live values) when the row pivots.
  std::vector<std::size_t> stage_of_col(n_);
  for (std::size_t s = 0; s < n_; ++s) stage_of_col[col_of_stage_[s]] = s;

  // Active pivot-row positions per stage (everything not eliminated in an
  // earlier stage, minus the pivot column itself, which the replay zeroes
  // through the factor slot).
  stage_src_begin_.assign(n_ + 1, 0);
  stage_src_.clear();
  for (std::size_t s = 0; s < n_; ++s) {
    stage_src_begin_[s] = stage_src_.size();
    const std::size_t p = pivot_of_stage_[s];
    for (std::size_t j = u_ptr_[p]; j < u_ptr_[p + 1]; ++j) {
      const std::size_t c = u_cols_[j];
      if (stage_of_col[c] <= s) continue;  // earlier stage (zero) or k itself
      stage_src_.push_back(j);
    }
    diag_idx_[s] = u_index(p, col_of_stage_[s]);
  }
  stage_src_begin_[n_] = stage_src_.size();

  // Per-op scatter maps: destination index in the target row for each
  // active pivot-row position of the op's stage, plus the factor slot.
  op_factor_idx_.assign(op_target_.size(), 0);
  op_map_begin_.assign(op_target_.size() + 1, 0);
  op_map_.clear();
  for (std::size_t s = 0; s < n_; ++s) {
    const std::size_t k = col_of_stage_[s];
    for (std::size_t oi = stage_op_begin_[s]; oi < stage_op_begin_[s + 1]; ++oi) {
      const std::size_t r = op_target_[oi];
      op_map_begin_[oi] = op_map_.size();
      op_factor_idx_[oi] = u_index(r, k);
      for (std::size_t j = stage_src_begin_[s]; j < stage_src_begin_[s + 1]; ++j)
        op_map_.push_back(u_index(r, u_cols_[stage_src_[j]]));
    }
  }
  op_map_begin_[op_target_.size()] = op_map_.size();

  // Input position -> U storage position, for refactorize()'s value scatter.
  scatter_map_.resize(in_cols_.size());
  for (std::size_t r = 0; r < n_; ++r)
    for (std::size_t j = in_row_ptr_[r]; j < in_row_ptr_[r + 1]; ++j)
      scatter_map_[j] = u_index(r, in_cols_[j]);

  factored_ = true;
}

bool SparseLu::refactorize(const CsrView& a) {
  if (in_row_ptr_.size() != n_ + 1) return false;  // never analyzed
  factored_ = false;
  if (a.n != n_ || a.nnz() != in_cols_.size()) return false;
  if (std::memcmp(a.row_ptr, in_row_ptr_.data(),
                  (n_ + 1) * sizeof(std::size_t)) != 0)
    return false;
  if (!in_cols_.empty() &&
      std::memcmp(a.cols, in_cols_.data(),
                  in_cols_.size() * sizeof(std::size_t)) != 0)
    return false;

  // Scatter the new values into the fill-extended pattern.
  std::fill(u_vals_.begin(), u_vals_.end(), 0.0);
  for (std::size_t j = 0; j < scatter_map_.size(); ++j)
    u_vals_[scatter_map_[j]] = a.vals[j];

  // Replay the recorded schedule: pure flat-array arithmetic, no
  // allocation, no pivot search.
  for (std::size_t s = 0; s < n_; ++s) {
    const double pivot = u_vals_[diag_idx_[s]];
    const double apiv = std::fabs(pivot);
    if (apiv < pivot_tol_) return false;
    const std::size_t src_begin = stage_src_begin_[s];
    const std::size_t src_len = stage_src_begin_[s + 1] - src_begin;
    double row_max = apiv;
    for (std::size_t j = 0; j < src_len; ++j)
      row_max = std::max(row_max, std::fabs(u_vals_[stage_src_[src_begin + j]]));
    if (apiv < kRefactorRelTol * row_max) return false;  // pivot degenerated

    const double inv = 1.0 / pivot;
    for (std::size_t oi = stage_op_begin_[s]; oi < stage_op_begin_[s + 1]; ++oi) {
      const double f = u_vals_[op_factor_idx_[oi]] * inv;
      op_factor_[oi] = f;
      u_vals_[op_factor_idx_[oi]] = 0.0;
      const std::size_t* dst = op_map_.data() + op_map_begin_[oi];
      for (std::size_t j = 0; j < src_len; ++j)
        u_vals_[dst[j]] -= f * u_vals_[stage_src_[src_begin + j]];
    }
  }

  factored_ = true;
  return true;
}

void SparseLu::solve_inplace(std::vector<double>& bx) const {
  NEMTCAM_EXPECT(bx.size() == n_);
  solve_inplace(bx.data());
}

void SparseLu::solve_inplace(double* bx) const {
  NEMTCAM_EXPECT(factored_);
  double* y = bx;
  // Forward: replay eliminations. At each recorded op the pivot row's value
  // is already final (a row is never updated after becoming a pivot).
  for (std::size_t s = 0; s < n_; ++s) {
    const double yp = y[pivot_of_stage_[s]];
    if (yp == 0.0) continue;
    for (std::size_t oi = stage_op_begin_[s]; oi < stage_op_begin_[s + 1]; ++oi)
      y[op_target_[oi]] -= op_factor_[oi] * yp;
  }

  // Backward: rows in reverse stage order form an upper-triangular system
  // (a pivot row's surviving entries belong to its own column plus
  // later-stage columns, whose unknowns are already solved; earlier-stage
  // positions hold exact zeros).
  x_scratch_.assign(n_, 0.0);
  double* x = x_scratch_.data();
  for (std::size_t stage = n_; stage-- > 0;) {
    const std::size_t p = pivot_of_stage_[stage];
    const std::size_t k = col_of_stage_[stage];
    double acc = y[p];
    for (std::size_t j = u_ptr_[p]; j < u_ptr_[p + 1]; ++j) {
      const std::size_t c = u_cols_[j];
      if (c != k) acc -= u_vals_[j] * x[c];
    }
    const double diag = u_vals_[diag_idx_[stage]];
    NEMTCAM_ENSURE_MSG(diag != 0.0, "SparseLu::solve: zero diagonal");
    x[k] = acc / diag;
  }
  std::copy(x, x + n_, bx);
}

std::vector<double> SparseLu::solve(const std::vector<double>& b) const {
  std::vector<double> bx = b;
  solve_inplace(bx);
  return bx;
}

}  // namespace nemtcam::linalg
