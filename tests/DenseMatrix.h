// Row-major dense matrix and vector helpers: test_linalg's oracle for
// SparseLu (DenseLu.h), sized for small systems.
#pragma once

#include <cstddef>
#include <vector>

#include "util/Expect.h"

namespace nemtcam::linalg {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols);

  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    NEMTCAM_EXPECT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    NEMTCAM_EXPECT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  // y = A * x
  std::vector<double> multiply(const std::vector<double>& x) const;

  const std::vector<double>& data() const noexcept { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// Vector helpers.
double dot(const std::vector<double>& a, const std::vector<double>& b);
double norm_inf(const std::vector<double>& v);
// r = a - b
std::vector<double> subtract(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace nemtcam::linalg
