// Sparse matrix in triplet-accumulation form with CSR finalization.
//
// MNA stamping naturally produces duplicate (row, col) contributions that
// must accumulate; `add` supports that directly. `rows_view` exposes the
// accumulated per-row entries for the sparse LU.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "util/Expect.h"

namespace nemtcam::linalg {

class SparseMatrix {
 public:
  SparseMatrix() = default;
  SparseMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  // Accumulates `value` at (r, c).
  void add(std::size_t r, std::size_t c, double value);

  // Merges duplicates and sorts each row by column. Idempotent; called
  // automatically by consumers that need the normalized view.
  void compress();

  // Per-row (col, value) entries, sorted by column, duplicates merged.
  // Calls compress() if needed.
  const std::vector<std::vector<std::pair<std::size_t, double>>>& rows_view();

  // y = A * x (compresses first).
  std::vector<double> multiply(const std::vector<double>& x);

  // Number of stored nonzeros after compression.
  std::size_t nnz();

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  bool compressed_ = true;
  std::vector<std::vector<std::pair<std::size_t, double>>> row_entries_;
};

}  // namespace nemtcam::linalg
