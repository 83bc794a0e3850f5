// Dense LU factorization with partial pivoting and solve: test_linalg's
// reference solution for SparseLu.
#pragma once

#include <vector>

#include "DenseMatrix.h"
#include "linalg/SingularMatrixError.h"

namespace nemtcam::linalg {

class DenseLu {
 public:
  // Factorizes a square matrix. Throws SingularMatrixError if a pivot
  // magnitude falls below `pivot_tol`.
  explicit DenseLu(DenseMatrix a, double pivot_tol = 1e-30);

  // Solves A x = b for the original A.
  std::vector<double> solve(const std::vector<double>& b) const;

  std::size_t size() const noexcept { return lu_.rows(); }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;  // row permutation: row i of U came from perm_[i]
};

}  // namespace nemtcam::linalg
