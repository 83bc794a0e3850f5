// Small statistics helpers used by Monte-Carlo benches and tests.
#pragma once

#include <cstddef>
#include <vector>

namespace nemtcam::util {

// Single-pass accumulator (Welford) for mean / variance / extrema.
class RunningStats {
 public:
  void add(double x) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return min_; }
  double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Percentile of a sample set with linear interpolation; p in [0, 100].
// The input vector is copied, so callers keep their ordering.
double percentile(std::vector<double> samples, double p);

}  // namespace nemtcam::util
