#include "devices/Diode.h"

#include <cmath>

namespace nemtcam::devices {

namespace {
constexpr double kThermalVoltage = 0.02585;
}

Diode::Diode(std::string name, NodeId anode, NodeId cathode, DiodeParams params)
    : Device(std::move(name)), anode_(anode), cathode_(cathode), params_(params),
      cj_c_(params.c_junction) {
  NEMTCAM_EXPECT(params_.i_sat > 0.0);
  NEMTCAM_EXPECT(params_.n_ideality >= 1.0);
}

double Diode::current_at(double v) const {
  const double nvt = params_.n_ideality * kThermalVoltage;
  // Exponent guard: beyond ~40·nvt, linearize to avoid overflow (the
  // Newton damping keeps iterates from ever operating there anyway).
  const double x = v / nvt;
  if (x > 40.0)
    return params_.i_sat * (std::exp(40.0) * (1.0 + (x - 40.0)) - 1.0);
  return params_.i_sat * (std::exp(x) - 1.0);
}

void Diode::stamp(Stamper& s, const StampContext& ctx) {
  const double v = ctx.v(anode_) - ctx.v(cathode_);
  const double nvt = params_.n_ideality * kThermalVoltage;
  const double i = current_at(v);
  const double x = v / nvt;
  const double g = (x > 40.0)
                       ? params_.i_sat * std::exp(40.0) / nvt
                       : params_.i_sat * std::exp(x) / nvt;
  s.nonlinear_current(anode_, cathode_, i, g, v);
}

void Diode::stamp_fixed(Stamper& s, const StampContext& ctx) {
  cj_c_.stamp_fixed(s, ctx, anode_, cathode_);
}

void Diode::commit(const StampContext& ctx) {
  cj_c_.commit(ctx, anode_, cathode_);
}


spice::DeviceTopology Diode::topology() const {
  // No r_on summary: the exponential junction has no useful single switch
  // resistance, so the STA engine keeps the edge for connectivity only.
  spice::DeviceTopology t{{{"anode", anode_}, {"cathode", cathode_}},
                          {{0, 1, spice::DcCoupling::Conductive}}};
  t.couplings[0].c = params_.c_junction;
  return t;
}

}  // namespace nemtcam::devices
