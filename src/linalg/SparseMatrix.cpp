#include "linalg/SparseMatrix.h"

#include <algorithm>

namespace nemtcam::linalg {

SparseMatrix::SparseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_entries_(rows) {}

void SparseMatrix::add(std::size_t r, std::size_t c, double value) {
  NEMTCAM_EXPECT(r < rows_ && c < cols_);
  if (value == 0.0) return;
  row_entries_[r].emplace_back(c, value);
  compressed_ = false;
}

void SparseMatrix::compress() {
  if (compressed_) return;
  for (auto& row : row_entries_) {
    std::sort(row.begin(), row.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t out = 0;
    for (std::size_t i = 0; i < row.size();) {
      std::size_t j = i;
      double acc = 0.0;
      while (j < row.size() && row[j].first == row[i].first) acc += row[j++].second;
      row[out++] = {row[i].first, acc};
      i = j;
    }
    row.resize(out);
  }
  compressed_ = true;
}

const std::vector<std::vector<std::pair<std::size_t, double>>>&
SparseMatrix::rows_view() {
  compress();
  return row_entries_;
}

std::vector<double> SparseMatrix::multiply(const std::vector<double>& x) {
  NEMTCAM_EXPECT(x.size() == cols_);
  compress();
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (const auto& [c, v] : row_entries_[r]) acc += v * x[c];
    y[r] = acc;
  }
  return y;
}

std::size_t SparseMatrix::nnz() {
  compress();
  std::size_t total = 0;
  for (const auto& row : row_entries_) total += row.size();
  return total;
}

}  // namespace nemtcam::linalg
