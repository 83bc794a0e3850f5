#include "devices/Inductor.h"

namespace nemtcam::devices {

Inductor::Inductor(std::string name, NodeId a, NodeId b, double henries)
    : Device(std::move(name)), a_(a), b_(b), henries_(henries) {
  NEMTCAM_EXPECT(henries_ > 0.0);
}

void Inductor::stamp_fixed(Stamper& s, const StampContext& ctx) {
  // BE companion: v − (L/dt)·i = −(L/dt)·i_prev; trapezoidal:
  // v − (2L/dt)·i = −(2L/dt)·i_prev − v_prev. In DC the reactive term
  // vanishes and the row enforces v_a = v_b (a short).
  if (ctx.dc()) {
    s.voltage_source(a_, b_, first_branch(), 0.0);
    return;
  }
  if (ctx.integrator() == spice::Integrator::Trapezoidal) {
    const double r_eq = 2.0 * henries_ / ctx.dt();
    const double v_prev = ctx.v_prev(a_) - ctx.v_prev(b_);
    s.voltage_source(a_, b_, first_branch(), -r_eq * i_prev_ - v_prev);
    s.branch_series_resistance(first_branch(), r_eq);
    return;
  }
  const double r_eq = henries_ / ctx.dt();
  s.voltage_source(a_, b_, first_branch(), -r_eq * i_prev_);
  s.branch_series_resistance(first_branch(), r_eq);
}

void Inductor::commit(const StampContext& ctx) {
  i_prev_ = ctx.branch_current(first_branch());
}


spice::DeviceTopology Inductor::topology() const {
  // A DC short: the branch equation pins v_a = v_b. r_on = 0 is the
  // honest summary; the STA engine clamps zero-resistance edges to a
  // floor conductance instead of dividing by zero.
  spice::DeviceTopology t{{{"a", a_}, {"b", b_}},
                          {{0, 1, spice::DcCoupling::Conductive}}};
  t.couplings[0].r_on = 0.0;
  return t;
}

}  // namespace nemtcam::devices
