#include "DenseMatrix.h"

#include <algorithm>
#include <cmath>

namespace nemtcam::linalg {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::vector<double> DenseMatrix::multiply(const std::vector<double>& x) const {
  NEMTCAM_EXPECT(x.size() == cols_);
  std::vector<double> y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  NEMTCAM_EXPECT(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm_inf(const std::vector<double>& v) {
  double worst = 0.0;
  for (double x : v) worst = std::max(worst, std::fabs(x));
  return worst;
}

std::vector<double> subtract(const std::vector<double>& a, const std::vector<double>& b) {
  NEMTCAM_EXPECT(a.size() == b.size());
  std::vector<double> r(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) r[i] = a[i] - b[i];
  return r;
}

}  // namespace nemtcam::linalg
