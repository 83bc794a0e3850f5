#include "devices/Fefet.h"

#include <algorithm>
#include <limits>

namespace nemtcam::devices {

Fefet::Fefet(std::string name, NodeId d, NodeId g, NodeId s, FefetParams params)
    : Device(std::move(name)), d_(d), g_(g), s_(s), params_(params),
      cgfe_c_(params.c_fe + params.fet.cgs), cgd_c_(params.fet.cgd),
      cdb_c_(params.fet.cdb), csb_c_(params.fet.csb) {
  NEMTCAM_EXPECT(params_.vth_low < params_.vth_high);
  NEMTCAM_EXPECT(params_.v_coercive < params_.v_write);
  NEMTCAM_EXPECT(params_.t_write > 0.0);
}

double Fefet::vth_eff() const noexcept {
  const double mid = 0.5 * (params_.vth_low + params_.vth_high);
  const double half_span = 0.5 * (params_.vth_high - params_.vth_low);
  return mid - p_ * half_span;
}

void Fefet::stamp(Stamper& s, const StampContext& ctx) {
  const double vg = ctx.v(g_);
  const double vd = ctx.v(d_);
  const double vs = ctx.v(s_);
  const MosEval e = ekv_eval(params_.fet, vth_eff(), vg, vd, vs);

  s.vccs(d_, s_, g_, spice::kGround, e.g_vg);
  s.vccs(d_, s_, d_, spice::kGround, e.g_vd);
  s.vccs(d_, s_, s_, spice::kGround, e.g_vs);
  s.current(d_, s_, e.ids - (e.g_vg * vg + e.g_vd * vd + e.g_vs * vs));
}

void Fefet::stamp_fixed(Stamper& s, const StampContext& ctx) {
  // Ferroelectric gate stack plus the FET's own parasitics.
  cgfe_c_.stamp_fixed(s, ctx, g_, s_);
  cgd_c_.stamp_fixed(s, ctx, g_, d_);
  cdb_c_.stamp_fixed(s, ctx, d_, spice::kGround);
  csb_c_.stamp_fixed(s, ctx, s_, spice::kGround);
}

void Fefet::save_state(std::vector<double>& out) const {
  cgfe_c_.save(out);
  cgd_c_.save(out);
  cdb_c_.save(out);
  csb_c_.save(out);
  out.insert(out.end(), {p_, moving_ ? 1.0 : 0.0, t_program_, t_erase_});
}

void Fefet::load_state(const double*& in) {
  cgfe_c_.load(in);
  cgd_c_.load(in);
  cdb_c_.load(in);
  csb_c_.load(in);
  p_ = in[0];
  moving_ = in[1] != 0.0;
  t_program_ = in[2];
  t_erase_ = in[3];
  in += 4;
}

void Fefet::append_params(std::vector<double>& out) const {
  params_.fet.append_to(out);
  out.insert(out.end(), {params_.vth_low, params_.vth_high,
                         params_.v_coercive, params_.v_write, params_.t_write,
                         params_.c_fe});
}

void Fefet::commit(const StampContext& ctx) {
  const double vgs = ctx.v(g_) - ctx.v(s_);
  const double dt = ctx.dt();
  const double vc = params_.v_coercive;
  const double p_before = p_;
  if (vgs > vc) {
    const double rate = (vgs - vc) / (params_.v_write - vc);
    p_ += rate * dt / params_.t_write * 2.0;  // full swing is 2 (−1 → +1)
  } else if (vgs < -vc) {
    const double rate = (-vgs - vc) / (params_.v_write - vc);
    p_ -= rate * dt / params_.t_write * 2.0;
  }
  p_ = std::clamp(p_, -1.0, 1.0);
  moving_ = (vgs > vc && p_ < 1.0) || (vgs < -vc && p_ > -1.0);
  if (p_before < 0.9 && p_ >= 0.9) t_program_ = ctx.t();
  if (p_before > -0.9 && p_ <= -0.9) t_erase_ = ctx.t();

  cgfe_c_.commit(ctx, g_, s_);
  cgd_c_.commit(ctx, g_, d_);
  cdb_c_.commit(ctx, d_, spice::kGround);
  csb_c_.commit(ctx, s_, spice::kGround);
}

double Fefet::max_dt_hint() const {
  // Resolve polarization motion; an idle device leaves the step free — the
  // event function guarantees a step lands on the coercive-voltage crossing
  // that starts the motion.
  if (!moving_) return std::numeric_limits<double>::infinity();
  return params_.t_write / 200.0;
}

double Fefet::event_function(const StampContext& ctx) const {
  if (ctx.dc()) return std::numeric_limits<double>::infinity();
  // Armed surface is chosen from the step-start voltage and committed
  // state, so both ends of a step evaluate the same surface.
  const double vc = params_.v_coercive;
  const double vgs_prev = ctx.v_prev(g_) - ctx.v_prev(s_);
  const double vgs = ctx.v(g_) - ctx.v(s_);
  if (vgs_prev > vc && p_ < 1.0) {
    // Erase in progress: the event is polarization saturating at +1,
    // projected with this step's end-point rate.
    const double rate = std::max(vgs - vc, 0.0) / (params_.v_write - vc);
    return 1.0 - (p_ + rate * ctx.dt() / params_.t_write * 2.0);
  }
  if (vgs_prev < -vc && p_ > -1.0) {
    const double rate = std::max(-vgs - vc, 0.0) / (params_.v_write - vc);
    return (p_ - rate * ctx.dt() / params_.t_write * 2.0) + 1.0;
  }
  // Idle: the event is the gate drive crossing either coercive threshold.
  return std::min(vc - vgs, vgs + vc);
}

void Fefet::set_polarization(double p) {
  NEMTCAM_EXPECT(p >= -1.0 && p <= 1.0);
  p_ = p;
}

void Fefet::set_memory_window(double vth_low, double vth_high) {
  params_.vth_low = vth_low;
  params_.vth_high = std::max(vth_high, vth_low + kWindowMin);
}


spice::DeviceTopology Fefet::topology() const {
  spice::DeviceTopology t{{{"d", d_}, {"g", g_}, {"s", s_}},
                          {{0, 2, spice::DcCoupling::Conductive},
                           {1, 0, spice::DcCoupling::Capacitive},
                           {1, 2, spice::DcCoupling::Capacitive}}};
  // Same macro-model as the MOSFET, at the polarization-dependent
  // threshold: the LVT state is a real switch, the HVT state reports a
  // huge r_on plus the above-rail off-leak — the 2FeFET matched-row droop.
  auto& ch = t.couplings[0];
  ch.r_on = ekv_switch_resistance(params_.fet, vth_eff());
  ch.g_off = ekv_off_leak(params_.fet, vth_eff());
  ch.ctrl = 1;
  ch.v_on = vth_eff();
  ch.active_low = params_.fet.type == MosType::Pmos;
  ch.v_gs_ref = kSummaryRail;
  ch.v_slope = params_.fet.n_slope * kThermalVoltage;
  t.couplings[1].c = params_.fet.cgd;
  t.couplings[2].c = params_.fet.cgs + params_.c_fe;
  t.terminals[0].c_ground = params_.fet.cdb;
  t.terminals[2].c_ground = params_.fet.csb;
  return t;
}

}  // namespace nemtcam::devices
