#include "devices/Passive.h"

namespace nemtcam::devices {

// A non-positive resistance is not rejected here: the ERC value pass
// (erc/Rules.cpp, value.nonpositive-r) reports it with the device name
// before any solve, which beats an anonymous precondition throw mid-parse.
Resistor::Resistor(std::string name, NodeId a, NodeId b, double ohms)
    : Device(std::move(name)), a_(a), b_(b), ohms_(ohms) {}

void Resistor::stamp(Stamper& s, const StampContext&) {
  s.conductance(a_, b_, 1.0 / ohms_);
}

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double farads)
    : Device(std::move(name)), a_(a), b_(b), farads_(farads) {
  NEMTCAM_EXPECT(farads_ >= 0.0);
}

double Capacitor::current_at(const StampContext& ctx) const {
  const double v_ab = ctx.v(a_) - ctx.v(b_);
  const double v_ab_prev = ctx.v_prev(a_) - ctx.v_prev(b_);
  if (ctx.integrator() == spice::Integrator::Trapezoidal)
    return 2.0 * farads_ / ctx.dt() * (v_ab - v_ab_prev) - i_prev_;
  return farads_ / ctx.dt() * (v_ab - v_ab_prev);
}

void Capacitor::stamp(Stamper& s, const StampContext& ctx) {
  if (ctx.dc() || farads_ == 0.0) return;
  const bool trap = ctx.integrator() == spice::Integrator::Trapezoidal;
  const double g = (trap ? 2.0 : 1.0) * farads_ / ctx.dt();
  const double v_ab = ctx.v(a_) - ctx.v(b_);
  s.nonlinear_current(a_, b_, current_at(ctx), g, v_ab);
}

void Capacitor::commit(const StampContext& ctx) {
  if (ctx.dc() || farads_ == 0.0) return;
  i_prev_ = current_at(ctx);
}

double CapCompanion::current_at(const StampContext& ctx, NodeId a,
                                NodeId b) const {
  const double v_ab = ctx.v(a) - ctx.v(b);
  const double v_ab_prev = ctx.v_prev(a) - ctx.v_prev(b);
  if (ctx.integrator() == spice::Integrator::Trapezoidal)
    return 2.0 * farads_ / ctx.dt() * (v_ab - v_ab_prev) - i_prev_;
  return farads_ / ctx.dt() * (v_ab - v_ab_prev);
}

void CapCompanion::stamp(Stamper& s, const StampContext& ctx, NodeId a,
                         NodeId b) const {
  if (ctx.dc() || farads_ == 0.0) return;  // open in DC
  const bool trap = ctx.integrator() == spice::Integrator::Trapezoidal;
  const double g = (trap ? 2.0 : 1.0) * farads_ / ctx.dt();
  const double v_ab = ctx.v(a) - ctx.v(b);
  s.nonlinear_current(a, b, current_at(ctx, a, b), g, v_ab);
}

void CapCompanion::commit(const StampContext& ctx, NodeId a, NodeId b) {
  if (ctx.dc() || farads_ == 0.0) return;
  i_prev_ = current_at(ctx, a, b);
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
  t.couplings[0].c = farads_;
  return t;
}

}  // namespace nemtcam::devices
