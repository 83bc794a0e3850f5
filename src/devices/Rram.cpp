#include "devices/Rram.h"

#include <algorithm>
#include <cmath>

namespace nemtcam::devices {

Rram::Rram(std::string name, NodeId top, NodeId bottom, RramParams params)
    : Device(std::move(name)), top_(top), bottom_(bottom), params_(params) {
  NEMTCAM_EXPECT(params_.r_on > 0.0 && params_.r_off > params_.r_on);
  NEMTCAM_EXPECT(params_.vth_set < params_.v_set);
  NEMTCAM_EXPECT(params_.vth_reset < params_.v_reset);
  NEMTCAM_EXPECT(params_.t_write > 0.0);
}

double Rram::resistance() const noexcept {
  const double g_on = 1.0 / params_.r_on;
  const double g_off = 1.0 / params_.r_off;
  const double g = g_off + (g_on - g_off) * std::pow(w_, params_.shape_exp);
  return 1.0 / g;
}

void Rram::stamp_fixed(Stamper& s, const StampContext&) {
  s.conductance(top_, bottom_, 1.0 / resistance());
}

void Rram::save_state(std::vector<double>& out) const {
  out.insert(out.end(), {w_, moving_ ? 1.0 : 0.0, t_set_, t_reset_});
}

void Rram::load_state(const double*& in) {
  w_ = in[0];
  moving_ = in[1] != 0.0;
  t_set_ = in[2];
  t_reset_ = in[3];
  in += 4;
}

void Rram::append_params(std::vector<double>& out) const {
  out.insert(out.end(),
             {params_.r_on, params_.r_off, params_.v_set, params_.v_reset,
              params_.vth_set, params_.vth_reset, params_.t_write,
              params_.shape_exp});
}

void Rram::commit(const StampContext& ctx) {
  const double v = ctx.v(top_) - ctx.v(bottom_);
  const double dt = ctx.dt();
  const double w_before = w_;
  if (v > params_.vth_set) {
    const double rate =
        (v - params_.vth_set) / (params_.v_set - params_.vth_set);
    w_ += rate * dt / params_.t_write;
  } else if (v < -params_.vth_reset) {
    const double rate =
        (-v - params_.vth_reset) / (params_.v_reset - params_.vth_reset);
    w_ -= rate * dt / params_.t_write;
  }
  w_ = std::clamp(w_, 0.0, 1.0);
  moving_ = (v > params_.vth_set && w_ < 1.0) ||
            (v < -params_.vth_reset && w_ > 0.0);
  if (w_before < 0.9 && w_ >= 0.9) t_set_ = ctx.t();
  if (w_before > 0.1 && w_ <= 0.1) t_reset_ = ctx.t();
}

double Rram::max_dt_hint() const {
  // Resolve state transitions while the filament is actually in motion;
  // 1/200 of the write time keeps the trajectory smooth. An idle device
  // leaves the step free — the event function below guarantees the engine
  // lands on the threshold crossing that starts the motion, so search-scale
  // transients are no longer capped by t_write.
  if (!moving_) return std::numeric_limits<double>::infinity();
  return params_.t_write / 200.0;
}

double Rram::event_function(const StampContext& ctx) const {
  if (ctx.dc()) return std::numeric_limits<double>::infinity();
  // Which surface is armed is decided from the step-start voltage and the
  // committed state (never the iterate), so both ends of a step see the
  // same surface.
  const double v_prev = ctx.v_prev(top_) - ctx.v_prev(bottom_);
  const double v = ctx.v(top_) - ctx.v(bottom_);
  if (v_prev > params_.vth_set && w_ < 1.0) {
    // SET in progress: the event is full formation (w reaching 1),
    // projected with this step's end-point rate.
    const double rate =
        std::max(v - params_.vth_set, 0.0) / (params_.v_set - params_.vth_set);
    return 1.0 - (w_ + rate * ctx.dt() / params_.t_write);
  }
  if (v_prev < -params_.vth_reset && w_ > 0.0) {
    const double rate = std::max(-v - params_.vth_reset, 0.0) /
                        (params_.v_reset - params_.vth_reset);
    return w_ - rate * ctx.dt() / params_.t_write;
  }
  // Idle: the event is the drive crossing either write threshold.
  return std::min(params_.vth_set - v, v + params_.vth_reset);
}

void Rram::set_state(double w) {
  NEMTCAM_EXPECT(w >= 0.0 && w <= 1.0);
  w_ = w;
}

void Rram::set_resistance_window(double r_on, double r_off) {
  params_.r_on = std::max(r_on, kROnMin);
  params_.r_off = std::max(r_off, params_.r_on * kMinWindowRatio);
}


spice::DeviceTopology Rram::topology() const {
  spice::DeviceTopology t{{{"top", top_}, {"bottom", bottom_}},
                          {{0, 1, spice::DcCoupling::Conductive}}};
  // Filament-state resistance. An HRS cell is still a real (weak)
  // conduction path — which is precisely the finite ON/OFF-ratio droop
  // that limits RRAM match-line array size; the STA engine reproduces
  // that hazard only because the summary reports HRS as a resistance,
  // not as leakage on an off switch.
  t.couplings[0].r_on = resistance();
  return t;
}

}  // namespace nemtcam::devices
