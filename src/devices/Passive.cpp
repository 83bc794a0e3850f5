#include "devices/Passive.h"

namespace nemtcam::devices {

// A non-positive resistance is not rejected here: the ERC value pass
// (erc/Rules.cpp, value.nonpositive-r) reports it with the device name
// before any solve, which beats an anonymous precondition throw mid-parse.
Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Device(std::move(name)), a_(a), b_(b), ohms_(ohms) {}

void Resistor::stamp_fixed(Stamper& s, const StampContext&) {
  s.conductance(a_, b_, 1.0 / ohms_);
}

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads)
    : Device(std::move(name)), a_(a), b_(b), c_(farads) {
  NEMTCAM_EXPECT(farads >= 0.0);
}

void CapCompanion::stamp_fixed(Stamper& s, const StampContext& ctx, NodeId a,
                               NodeId b) const {
  if (ctx.dc() || farads_ == 0.0) return;  // open in DC
  // i(v) = g·v − g·v_prev − (trap ? i_prev : 0): the conductance and the
  // history current are both fixed over the step.
  const bool trap = ctx.integrator() == spice::Integrator::Trapezoidal;
  const double g = (trap ? 2.0 : 1.0) * farads_ / ctx.dt();
  const double v_ab_prev = ctx.v_prev(a) - ctx.v_prev(b);
  s.conductance(a, b, g);
  s.current(a, b, -g * v_ab_prev - (trap ? i_prev_ : 0.0));
}

void CapCompanion::commit(const StampContext& ctx, NodeId a, NodeId b) {
  if (ctx.dc() || farads_ == 0.0) return;
  const double v_ab = ctx.v(a) - ctx.v(b);
  const double v_ab_prev = ctx.v_prev(a) - ctx.v_prev(b);
  if (ctx.integrator() == spice::Integrator::Trapezoidal)
    i_prev_ = 2.0 * farads_ / ctx.dt() * (v_ab - v_ab_prev) - i_prev_;
  else
    i_prev_ = farads_ / ctx.dt() * (v_ab - v_ab_prev);
}

spice::DeviceTopology Resistor::topology() const {
  spice::DeviceTopology t{{{"a", a_}, {"b", b_}},
                          {{0, 1, spice::DcCoupling::Conductive}}};
  t.couplings[0].r_on = ohms_;
  return t;
}

spice::DeviceTopology Capacitor::topology() const {
  spice::DeviceTopology t{{{"a", a_}, {"b", b_}},
                          {{0, 1, spice::DcCoupling::Capacitive}}};
  t.couplings[0].c = c_.capacitance();
  return t;
}

}  // namespace nemtcam::devices
