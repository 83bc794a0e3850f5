#include "DenseLu.h"

#include <cmath>

namespace nemtcam::linalg {

DenseLu::DenseLu(DenseMatrix a, double pivot_tol) : lu_(std::move(a)) {
  NEMTCAM_EXPECT(lu_.rows() == lu_.cols());
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below k.
    std::size_t piv = k;
    double best = std::fabs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(lu_(r, k));
      if (mag > best) {
        best = mag;
        piv = r;
      }
    }
    if (best < pivot_tol)
      throw SingularMatrixError("DenseLu: matrix is singular (pivot " +
                                std::to_string(best) + " at column " +
                                std::to_string(k) + ")");
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(piv, c));
      std::swap(perm_[k], perm_[piv]);
    }
    const double pivot = lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) / pivot;
      lu_(r, k) = factor;  // store L below the diagonal
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) lu_(r, c) -= factor * lu_(k, c);
    }
  }
}

std::vector<double> DenseLu::solve(const std::vector<double>& b) const {
  const std::size_t n = lu_.rows();
  NEMTCAM_EXPECT(b.size() == n);
  // Apply permutation, then forward substitution (unit lower-triangular L).
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * y[j];
    y[i] = acc;
  }
  // Back substitution with U.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
  return x;
}

}  // namespace nemtcam::linalg
