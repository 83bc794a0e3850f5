#include "devices/Mosfet.h"

#include <cmath>

#include "devices/Passive.h"

namespace nemtcam::devices {

namespace {

// softplus(x) = ln(1 + e^x) with overflow guard; also returns sigmoid(x)
// (its derivative).
struct Softplus {
  double value;
  double derivative;
};

Softplus softplus(double x) {
  if (x > 40.0) return {x, 1.0};
  if (x < -40.0) {
    const double e = std::exp(x);
    return {e, e};
  }
  const double e = std::exp(x);
  return {std::log1p(e), e / (1.0 + e)};
}

// F(x) = ln(1 + e^{x/2})², F'(x) = ln(1 + e^{x/2})·sigmoid(x/2).
struct FEval {
  double value;
  double derivative;
};

FEval charge_fn(double x) {
  const Softplus sp = softplus(0.5 * x);
  return {sp.value * sp.value, sp.value * sp.derivative};
}

}  // namespace

MosfetParams MosfetParams::nmos_lp(double width_scale) {
  MosfetParams p;
  p.type = MosType::Nmos;
  p.vth = 0.46;
  p.kp = 3.0e-4 * width_scale;
  p.n_slope = 1.35;
  // Minimal-size 45 nm device capacitances (gate ≈ W·L·Cox ≈ 0.18 fF plus
  // overlap, junctions ≈ 0.08 fF), scaled with width.
  p.cgs = 90e-18 * width_scale;
  p.cgd = 90e-18 * width_scale;
  p.cdb = 40e-18 * width_scale;
  p.csb = 40e-18 * width_scale;
  return p;
}

MosfetParams MosfetParams::pmos_lp(double width_scale) {
  MosfetParams p = nmos_lp(width_scale);
  p.type = MosType::Pmos;
  p.vth = 0.49;
  p.kp = 1.4e-4 * width_scale;  // hole mobility penalty
  return p;
}

void MosfetParams::append_to(std::vector<double>& out) const {
  out.insert(out.end(), {type == MosType::Nmos ? 0.0 : 1.0, vth, kp, n_slope,
                         cgs, cgd, cdb, csb, event_on_vth ? 1.0 : 0.0});
}

MosEval ekv_eval(const MosfetParams& p, double vth_eff, double v_g, double v_d,
                 double v_s) {
  // For PMOS, mirror all voltages and negate the current.
  const double sign = (p.type == MosType::Nmos) ? 1.0 : -1.0;
  const double vg = sign * v_g;
  const double vd = sign * v_d;
  const double vs = sign * v_s;

  const double nvt = p.n_slope * kThermalVoltage;
  const double i_spec = 2.0 * p.n_slope * kThermalVoltage * kThermalVoltage * p.kp;

  const FEval ff = charge_fn((vg - vs - vth_eff) / nvt);
  const FEval fr = charge_fn((vg - vd - vth_eff) / nvt);

  MosEval e;
  const double ids = i_spec * (ff.value - fr.value);
  const double a = i_spec * ff.derivative / nvt;  // ∂/∂(vg−vs)
  const double b = i_spec * fr.derivative / nvt;  // ∂/∂(vg−vd)
  // In mirrored coordinates: ∂ids/∂vg = a − b, ∂ids/∂vd = b, ∂ids/∂vs = −a.
  // Mapping back: ids_real = sign·ids(sign·v). ∂ids_real/∂v_real =
  // sign·∂ids/∂v_mirr·sign = ∂ids/∂v_mirr.
  e.ids = sign * ids;
  e.g_vg = a - b;
  e.g_vd = b;
  e.g_vs = -a;
  return e;
}

double ekv_switch_resistance(const MosfetParams& p, double vth_eff) {
  // Mid-swing chord resistance of the fully driven channel: NMOS with the
  // gate at the rail discharging a half-rail drain (PMOS mirrored). A
  // channel that cannot turn on at rail drive (FeFET HVT state) comes out
  // astronomically resistive, which is the right macro-model answer.
  const MosEval e =
      p.type == MosType::Nmos
          ? ekv_eval(p, vth_eff, kSummaryRail, 0.5 * kSummaryRail, 0.0)
          : ekv_eval(p, vth_eff, 0.0, 0.5 * kSummaryRail, kSummaryRail);
  const double i = std::abs(e.ids);
  return i > 0.0 ? 0.5 * kSummaryRail / i : 1.0 / std::numeric_limits<double>::min();
}

double ekv_off_leak(const MosfetParams& p, double vth_eff) {
  // Worst-case off-state chord leak across the full rail. The worst gate
  // level that still leaves the channel off is 0 for a normal threshold,
  // but full rail for a vth_eff above the rail (an HVT FeFET operates
  // "off" at full gate drive, and that is its matched-search leak).
  const double vg_off = vth_eff > kSummaryRail ? kSummaryRail : 0.0;
  const MosEval e =
      p.type == MosType::Nmos
          ? ekv_eval(p, vth_eff, vg_off, kSummaryRail, 0.0)
          : ekv_eval(p, vth_eff, kSummaryRail - vg_off, 0.0, kSummaryRail);
  return std::abs(e.ids) / kSummaryRail;
}

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s,
               MosfetParams params)
    : Device(std::move(name)), d_(d), g_(g), s_(s), params_(params),
      cgs_c_(params.cgs), cgd_c_(params.cgd), cdb_c_(params.cdb),
      csb_c_(params.csb) {
  NEMTCAM_EXPECT(params_.kp > 0.0);
  NEMTCAM_EXPECT(params_.n_slope >= 1.0);
}

void Mosfet::stamp(Stamper& s, const StampContext& ctx) {
  const double vg = ctx.v(g_);
  const double vd = ctx.v(d_);
  const double vs = ctx.v(s_);
  const MosEval e = ekv_eval(params_, params_.vth, vg, vd, vs);

  // Jacobian of the D→S current w.r.t. the three terminal voltages.
  s.vccs(d_, s_, g_, spice::kGround, e.g_vg);
  s.vccs(d_, s_, d_, spice::kGround, e.g_vd);
  s.vccs(d_, s_, s_, spice::kGround, e.g_vs);
  // Equivalent current so that J·v − f is stamped consistently.
  const double i_lin = e.g_vg * vg + e.g_vd * vd + e.g_vs * vs;
  s.current(d_, s_, e.ids - i_lin);
}

void Mosfet::stamp_fixed(Stamper& s, const StampContext& ctx) {
  cgs_c_.stamp_fixed(s, ctx, g_, s_);
  cgd_c_.stamp_fixed(s, ctx, g_, d_);
  cdb_c_.stamp_fixed(s, ctx, d_, spice::kGround);
  csb_c_.stamp_fixed(s, ctx, s_, spice::kGround);
}

void Mosfet::commit(const StampContext& ctx) {
  cgs_c_.commit(ctx, g_, s_);
  cgd_c_.commit(ctx, g_, d_);
  cdb_c_.commit(ctx, d_, spice::kGround);
  csb_c_.commit(ctx, s_, spice::kGround);
}

void Mosfet::save_state(std::vector<double>& out) const {
  cgs_c_.save(out);
  cgd_c_.save(out);
  cdb_c_.save(out);
  csb_c_.save(out);
}

void Mosfet::load_state(const double*& in) {
  cgs_c_.load(in);
  cgd_c_.load(in);
  cdb_c_.load(in);
  csb_c_.load(in);
}

double Mosfet::event_function(const StampContext& ctx) const {
  if (!params_.event_on_vth || ctx.dc())
    return std::numeric_limits<double>::infinity();
  // Signed distance to the conduction edge: positive while the channel is
  // on, so the engine lands a step where the gate drive falls through V_th.
  const double sign = params_.type == MosType::Nmos ? 1.0 : -1.0;
  return sign * (ctx.v(g_) - ctx.v(s_)) - params_.vth;
}

double Mosfet::ids(const StampContext& ctx) const {
  return ekv_eval(params_, params_.vth, ctx.v(g_), ctx.v(d_), ctx.v(s_)).ids;
}


spice::DeviceTopology Mosfet::topology() const {
  // The channel conducts (at least subthreshold) at DC; the gate draws no
  // DC current — a node driving only gates has no DC path through them.
  spice::DeviceTopology t{{{"d", d_}, {"g", g_}, {"s", s_}},
                          {{0, 2, spice::DcCoupling::Conductive},
                           {1, 0, spice::DcCoupling::Capacitive},
                           {1, 2, spice::DcCoupling::Capacitive}}};
  auto& ch = t.couplings[0];
  if (params_.vth != sum_vth_) {
    sum_r_on_ = ekv_switch_resistance(params_, params_.vth);
    sum_g_off_ = ekv_off_leak(params_, params_.vth);
    sum_vth_ = params_.vth;
  }
  ch.r_on = sum_r_on_;
  ch.g_off = sum_g_off_;
  ch.ctrl = 1;
  ch.v_on = params_.vth;
  ch.active_low = params_.type == MosType::Pmos;
  ch.v_gs_ref = kSummaryRail;
  ch.v_slope = params_.n_slope * kThermalVoltage;
  t.couplings[1].c = params_.cgd;
  t.couplings[2].c = params_.cgs;
  t.terminals[0].c_ground = params_.cdb;
  t.terminals[2].c_ground = params_.csb;
  return t;
}

}  // namespace nemtcam::devices
