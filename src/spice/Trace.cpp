#include "spice/Trace.h"

#include <algorithm>
#include <cmath>

#include "util/Expect.h"

namespace nemtcam::spice {

Trace::Trace(std::vector<double> times, std::vector<double> values)
    : times_(std::move(times)), values_(std::move(values)) {
  NEMTCAM_EXPECT(times_.size() == values_.size());
  for (std::size_t i = 1; i < times_.size(); ++i)
    NEMTCAM_EXPECT_MSG(times_[i] > times_[i - 1], "trace times must increase");
}

double Trace::back() const {
  NEMTCAM_EXPECT(!empty());
  return values_.back();
}

double Trace::at(double t) const {
  NEMTCAM_EXPECT(!empty());
  if (t <= times_.front()) return values_.front();
  if (t >= times_.back()) return values_.back();
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  const std::size_t hi = static_cast<std::size_t>(it - times_.begin());
  const std::size_t lo = hi - 1;
  const double span = times_[hi] - times_[lo];
  const double frac = (t - times_[lo]) / span;
  return values_[lo] + frac * (values_[hi] - values_[lo]);
}

std::optional<double> Trace::cross_time(double level, bool rising,
                                        double t_from) const {
  for (std::size_t i = 1; i < times_.size(); ++i) {
    if (times_[i] < t_from) continue;
    const double v0 = values_[i - 1];
    const double v1 = values_[i];
    const bool crossed = rising ? (v0 < level && v1 >= level)
                                : (v0 > level && v1 <= level);
    if (!crossed) continue;
    const double frac = (level - v0) / (v1 - v0);
    const double t = times_[i - 1] + frac * (times_[i] - times_[i - 1]);
    if (t >= t_from) return t;
  }
  return std::nullopt;
}

double Trace::integral(double t_from, double t_to) const {
  NEMTCAM_EXPECT(!empty());
  NEMTCAM_EXPECT(t_to >= t_from);
  double acc = 0.0;
  for (std::size_t i = 1; i < times_.size(); ++i) {
    const double a = std::max(times_[i - 1], t_from);
    const double b = std::min(times_[i], t_to);
    if (b <= a) continue;
    acc += 0.5 * (at(a) + at(b)) * (b - a);
  }
  return acc;
}

double Trace::integral() const {
  NEMTCAM_EXPECT(!empty());
  return integral(times_.front(), times_.back());
}

double Trace::min_value() const {
  NEMTCAM_EXPECT(!empty());
  return *std::min_element(values_.begin(), values_.end());
}

double Trace::max_value() const {
  NEMTCAM_EXPECT(!empty());
  return *std::max_element(values_.begin(), values_.end());
}

std::optional<double> Trace::settle_time(double target, double tol) const {
  NEMTCAM_EXPECT(!empty());
  NEMTCAM_EXPECT(tol > 0.0);
  if (std::fabs(values_.back() - target) > tol) return std::nullopt;
  for (std::size_t i = times_.size(); i-- > 0;) {
    if (std::fabs(values_[i] - target) > tol) {
      // Interpolate the band entry between samples i and i+1.
      if (i + 1 >= times_.size()) return times_.back();
      const double v0 = values_[i];
      const double v1 = values_[i + 1];
      const double edge = (v0 < target) ? target - tol : target + tol;
      if (v1 == v0) return times_[i + 1];
      const double frac = (edge - v0) / (v1 - v0);
      return times_[i] + frac * (times_[i + 1] - times_[i]);
    }
  }
  return times_.front();
}

}  // namespace nemtcam::spice
