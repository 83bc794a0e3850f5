#include "devices/NemRelay.h"

#include <algorithm>
#include <cmath>

namespace nemtcam::devices {

NemRelay::NemRelay(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
                   NemRelayParams params)
    : Device(std::move(name)), d_(d), g_(g), s_(s), b_(b), params_(params) {
  // An inverted hysteresis window (V_PO >= V_PI) is a design-rule error,
  // not a contract violation: the ERC value pass reports it by name
  // (value.hysteresis-inverted) before any solve. The remaining checks
  // guard quantities the mechanics divide by.
  NEMTCAM_EXPECT(params_.c_on >= params_.c_off && params_.c_off > 0.0);
  NEMTCAM_EXPECT(params_.r_on > 0.0 && params_.g_off >= 0.0);
  NEMTCAM_EXPECT(params_.tau_mech > 0.0);
}

double NemRelay::gate_capacitance() const noexcept {
  return params_.c_off + (params_.c_on - params_.c_off) * position_;
}

double NemRelay::effective_vgb(double v_gb) const {
  return params_.bipolar_actuation ? std::fabs(v_gb) : v_gb;
}

void NemRelay::stamp_fixed(Stamper& s, const StampContext& ctx) {
  // Drain–source contact.
  const double g_ds = contact() ? 1.0 / params_.r_on : params_.g_off;
  s.conductance(d_, s_, g_ds);

  // Gate–body leakage, if configured.
  if (params_.gate_leak_g > 0.0) s.conductance(g_, b_, params_.gate_leak_g);

  if (ctx.dc()) return;

  // Charge-based companion for the position-dependent gate capacitance:
  //   i = (C(z)·v_gb − q_prev)/dt
  // where q_prev is the committed charge. When z changed last commit, the
  // mismatch between C(z_new)·v and q_prev drives the physically correct
  // redistribution current (or, on a floating node, a voltage change at
  // constant charge). z and q_prev are committed state, so both the
  // conductance C(z)/dt and the current −q_prev/dt are fixed over the step.
  s.conductance(g_, b_, gate_capacitance() / ctx.dt());
  s.current(g_, b_, -q_gb_ / ctx.dt());
}

NemRelay::MechDrive NemRelay::drive_for(double v_now_eff, double v_before_eff,
                                        double dt) const {
  // Hysteretic target update with sub-step crossing interpolation: the
  // portion of the step spent past a threshold drives the beam.
  const auto crossing_fraction = [&](double level, bool rising) -> double {
    // Fraction of the step during which the signal is beyond `level`.
    const bool before =
        rising ? (v_before_eff >= level) : (v_before_eff <= level);
    const bool after = rising ? (v_now_eff >= level) : (v_now_eff <= level);
    if (before && after) return 1.0;
    if (!before && !after) return 0.0;
    const double span = v_now_eff - v_before_eff;
    if (span == 0.0) return after ? 1.0 : 0.0;
    const double frac_at_cross = (level - v_before_eff) / span;
    return after ? (1.0 - frac_at_cross) : frac_at_cross;
  };

  MechDrive md;  // drive_time signed: + toward closed, − toward open
  const double f_in = crossing_fraction(params_.v_pi, /*rising=*/true);
  const double f_out = crossing_fraction(params_.v_po, /*rising=*/false);
  if (f_in > 0.0) {
    md.target_closed = true;
    md.drive_time = f_in * dt;
  } else if (f_out > 0.0) {
    md.target_closed = false;
    md.drive_time = -f_out * dt;
  } else {
    // Inside the hysteresis window a beam heading toward contact holds its
    // course only past the pull-in instability point: beyond z_critical the
    // electrostatic force continues to (or stays at) contact, before it the
    // spring returns it to rest — a short actuation glitch cannot flip the
    // cell. A beam that has begun release keeps going regardless: once the
    // contact lets go the spring dominates until full release. (The
    // shrinking C_GB pushes a floating gate's voltage back above V_PO as
    // the beam opens — re-arming the electrostatic hold here would chatter
    // the beam at the release point forever.)
    md.target_closed = target_closed_ && position_ >= params_.z_critical;
    md.drive_time = md.target_closed ? dt : -dt;
  }
  return md;
}

void NemRelay::commit(const StampContext& ctx) {
  if (stuck_) {
    // Pinned beam: the gate charge still tracks the solved voltage (the
    // capacitor is intact), but no mechanics.
    q_gb_ = gate_capacitance() * (ctx.v(g_) - ctx.v(b_));
    return;
  }
  const double v_now = effective_vgb(ctx.v(g_) - ctx.v(b_));
  const double v_before = effective_vgb(ctx.v_prev(g_) - ctx.v_prev(b_));

  // Update the gate charge to be consistent with the capacitance used in
  // this step's stamp (charge the solved current actually delivered).
  q_gb_ = gate_capacitance() * (ctx.v(g_) - ctx.v(b_));

  const MechDrive md = drive_for(v_now, v_before, ctx.dt());
  target_closed_ = md.target_closed;

  const double pos_before = position_;
  position_ += md.drive_time / params_.tau_mech;
  position_ = std::clamp(position_, 0.0, 1.0);
  if (pos_before < 1.0 && position_ >= 1.0) t_closed_ = ctx.t();
  if (pos_before > 0.0 && position_ <= 0.0) t_opened_ = ctx.t();
}

double NemRelay::event_function(const StampContext& ctx) const {
  if (ctx.dc() || stuck_) return std::numeric_limits<double>::infinity();
  const double v_now = effective_vgb(ctx.v(g_) - ctx.v(b_));
  // Held closed: the contact breaks when |V_GB| falls through pull-out.
  if (position_ >= 1.0 && target_closed_) return v_now - params_.v_po;
  // At rest open: traversal starts when |V_GB| reaches pull-in.
  if (position_ <= 0.0 && !target_closed_) return params_.v_pi - v_now;
  // In flight: the event is arrival (contact at z = 1 when closing, full
  // release at z = 0 when opening). Project the commit this step would
  // apply; the unclamped position's overshoot is the signed distance.
  const double v_before = effective_vgb(ctx.v_prev(g_) - ctx.v_prev(b_));
  const MechDrive md = drive_for(v_now, v_before, ctx.dt());
  const double z = position_ + md.drive_time / params_.tau_mech;
  return md.target_closed ? 1.0 - z : z;
}

double NemRelay::max_dt_hint() const {
  // Resolve the traversal while the beam is in flight toward a different
  // state; otherwise leave the step free.
  const bool at_rest = stuck_ ||
                       (position_ <= 0.0 && !target_closed_) ||
                       (position_ >= 1.0 && target_closed_);
  if (at_rest) return std::numeric_limits<double>::infinity();
  return params_.tau_mech / 50.0;
}

void NemRelay::save_state(std::vector<double>& out) const {
  out.insert(out.end(), {position_, target_closed_ ? 1.0 : 0.0,
                         stuck_ ? 1.0 : 0.0, q_gb_, t_closed_, t_opened_});
}

void NemRelay::load_state(const double*& in) {
  position_ = in[0];
  target_closed_ = in[1] != 0.0;
  stuck_ = in[2] != 0.0;
  q_gb_ = in[3];
  t_closed_ = in[4];
  t_opened_ = in[5];
  in += 6;
}

void NemRelay::append_params(std::vector<double>& out) const {
  out.insert(out.end(),
             {params_.v_pi, params_.v_po, params_.c_on, params_.c_off,
              params_.r_on, params_.g_off, params_.tau_mech,
              params_.gate_leak_g, params_.bipolar_actuation ? 1.0 : 0.0,
              params_.z_critical});
}

void NemRelay::set_state(bool closed, double v_gb) {
  if (stuck_) return;  // a welded/broken beam cannot be re-seeded
  position_ = closed ? 1.0 : 0.0;
  target_closed_ = closed;
  q_gb_ = gate_capacitance() * v_gb;
}

void NemRelay::force_stuck(bool closed) {
  stuck_ = true;
  position_ = closed ? 1.0 : 0.0;
  target_closed_ = closed;
  // The beam broke in place: the floating-gate charge is untouched (the
  // capacitance change redistributes it on the next solve).
}

void NemRelay::set_contact_resistance(double r_on) {
  // Degradation hook: saturate at the physical bounds rather than assert —
  // a lifetime engine integrating wear over years must be free to push the
  // drift law past its validity range without tripping the process.
  params_.r_on = std::clamp(r_on, kROnMin, kROnMax);
}

void NemRelay::set_gate_leakage(double g) {
  params_.gate_leak_g = std::clamp(g, 0.0, kLeakMax);
}

void NemRelay::shift_pull_in(double dv) {
  params_.v_pi =
      std::clamp(params_.v_pi + dv, params_.v_po + kWindowMin, kVpiMax);
}

void NemRelay::set_thresholds(double v_pi, double v_po) {
  params_.v_pi = v_pi;
  params_.v_po = v_po;
}

void NemRelay::set_off_leakage(double g) {
  NEMTCAM_EXPECT(g >= 0.0);
  params_.g_off = g;
}


spice::DeviceTopology NemRelay::topology() const {
  // The open contact still stamps its g_off leakage, so drain–source is
  // structurally conductive in either mechanical state. The gate–body
  // actuation capacitor opens at DC unless an explicit leakage is set.
  spice::DeviceTopology t{{{"d", d_}, {"g", g_}, {"s", s_}, {"b", b_}},
          {{0, 2, spice::DcCoupling::Conductive},
           {1, 3,
            params_.gate_leak_g > 0.0 ? spice::DcCoupling::Conductive
                                      : spice::DcCoupling::Capacitive}}};
  // Contact: a static switch over an STA horizon — the mechanical
  // traversal (τ_mech = 2 ns) dwarfs an ML discharge, so the committed
  // position decides conduction, not the gate level.
  auto& contact_edge = t.couplings[0];
  contact_edge.r_on = params_.r_on;
  contact_edge.g_off = params_.g_off;
  contact_edge.on = contact();
  // Actuation gap: position-dependent capacitance; a leaky dielectric
  // turns the edge into a resistor of 1/gate_leak_g.
  auto& gate_edge = t.couplings[1];
  gate_edge.c = gate_capacitance();
  if (params_.gate_leak_g > 0.0) gate_edge.r_on = 1.0 / params_.gate_leak_g;
  // A closed relay's floating gate holds the stored datum: if its level
  // decays below V_PO the beam releases. This is the paper's one-shot-
  // refresh retention hazard, declared here so the sta.refresh-window
  // rule can bound it without knowing anything relay-specific.
  if (contact() && !stuck_)
    t.terminals[1].v_hold = params_.v_po;
  return t;
}

}  // namespace nemtcam::devices
