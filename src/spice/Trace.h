// Recorded scalar signal with the .measure-style post-processing the
// benches use: crossing times, interpolation, integrals.
#pragma once

#include <optional>
#include <vector>

namespace nemtcam::spice {

class Trace {
 public:
  Trace() = default;
  Trace(std::vector<double> times, std::vector<double> values);

  std::size_t size() const noexcept { return times_.size(); }
  bool empty() const noexcept { return times_.empty(); }

  const std::vector<double>& times() const noexcept { return times_; }
  const std::vector<double>& values() const noexcept { return values_; }

  double back() const;

  // Linear interpolation; clamps outside the recorded span.
  double at(double t) const;

  // First time the signal crosses `level` in the given direction at or
  // after `t_from`; nullopt if it never does. Linear interpolation between
  // samples gives sub-step resolution.
  std::optional<double> cross_time(double level, bool rising,
                                   double t_from = 0.0) const;

  // Trapezoidal ∫ v dt over [t_from, t_to] (defaults to the full span).
  double integral(double t_from, double t_to) const;
  double integral() const;

  double min_value() const;
  double max_value() const;

  // Last time the signal is outside the band target ± tol (i.e. the time
  // it finally settles). Returns the first sample's time if it is always
  // inside, and nullopt if it never settles (still outside at the last
  // sample).
  std::optional<double> settle_time(double target, double tol) const;

 private:
  std::vector<double> times_;
  std::vector<double> values_;
};

}  // namespace nemtcam::spice
