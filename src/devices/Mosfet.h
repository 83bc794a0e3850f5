// Compact MOSFET model (simplified EKV) with PTM-45nm-LP-like defaults.
//
// The charge-sheet interpolation
//   Ids = Is·[F(x_f) − F(x_r)],  F(x) = ln(1 + e^{x/2})²,
//   x_f = (V_GS − V_th)/(n·v_T),  x_r = (V_GD − V_th)/(n·v_T),
//   Is  = 2·n·v_T²·kp
// is smooth across subthreshold / triode / saturation (good Newton
// behaviour), symmetric in drain/source (pass-gate correct), and gives a
// physical exponential subthreshold leak — which is what sets the dynamic
// TCAM's retention time, so it matters here.
#pragma once

#include "devices/Passive.h"
#include "spice/Device.h"
#include "spice/Stamper.h"

namespace nemtcam::devices {

using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;

enum class MosType { Nmos, Pmos };

struct MosfetParams {
  MosType type = MosType::Nmos;
  double vth = 0.46;       // |threshold| (V); PTM 45 nm LP-like
  double kp = 3.0e-4;      // transconductance µCox·W/L (A/V²)
  double n_slope = 1.35;   // subthreshold slope factor
  double cgs = 0.0;        // gate-source capacitance (F)
  double cgd = 0.0;        // gate-drain capacitance (F)
  double cdb = 0.0;        // drain-bulk junction capacitance to ground (F)
  double csb = 0.0;        // source-bulk junction capacitance to ground (F)
  // Opt-in accuracy knob for LTE-controlled transients: report the V_GS =
  // V_th conduction edge through Device::event_function so the engine lands
  // a step on turn-off crossings. Off by default — the EKV interpolation is
  // smooth, so most circuits don't need the extra solves.
  bool event_on_vth = false;

  static MosfetParams nmos_lp(double width_scale = 1.0);
  static MosfetParams pmos_lp(double width_scale = 1.0);

  // Appends every field (Device::append_params of Mosfet and Fefet).
  void append_to(std::vector<double>& out) const;
};

// Evaluated drain current and partial derivatives (NMOS sign convention:
// current flows D→S when positive).
struct MosEval {
  double ids = 0.0;
  double g_vg = 0.0;  // ∂Ids/∂v_G
  double g_vd = 0.0;  // ∂Ids/∂v_D
  double g_vs = 0.0;  // ∂Ids/∂v_S
};

// Pure model evaluation given terminal voltages (shared with Fefet, which
// substitutes a polarization-dependent threshold).
MosEval ekv_eval(const MosfetParams& p, double vth_eff, double v_g, double v_d,
                 double v_s);

// Small-signal summary helpers behind Device::topology() (shared with
// Fefet): effective switch resistance of the fully driven channel and
// worst-case off-state leak conductance, both chord values at the
// library's nominal 1 V rail (see DeviceTopology::Coupling).
// The rail the summaries are referenced to; also published as each
// channel coupling's v_gs_ref so the STA engine can derate for partial
// gate drive.
inline constexpr double kSummaryRail = 1.0;
// v_T at 300 K, shared with the Fefet and the coupling summary's
// subthreshold-slope voltage (v_slope = n·v_T).
inline constexpr double kThermalVoltage = 0.02585;
double ekv_switch_resistance(const MosfetParams& p, double vth_eff);
double ekv_off_leak(const MosfetParams& p, double vth_eff);

class Mosfet final : public Device {
 public:
  Mosfet(std::string name, NodeId d, NodeId g, NodeId s, MosfetParams params);

  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  void stamp(Stamper& s, const StampContext& ctx) override;
  void commit(const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;
  double event_function(const StampContext& ctx) const override;

  const MosfetParams& params() const noexcept { return params_; }
  // Drain current at the given context (telemetry / tests).
  double ids(const StampContext& ctx) const;

  // Aging hook: shift |V_th| by delta volts (BTI drift). Clamped to
  // [kVthMin, kVthMax]: an extreme negative excursion degrades to
  // always-on rather than a nonsensical negative threshold, and
  // multi-year BTI accumulation saturates at a cannot-turn-on ceiling
  // instead of growing without bound.
  void shift_vth(double delta_v) {
    const double vth = params_.vth + delta_v;
    params_.vth = vth < kVthMin ? kVthMin : (vth > kVthMax ? kVthMax : vth);
  }

  // Fault-injection hook: set |V_th| to the design-nominal value plus an
  // absolute outlier offset, same clamp as shift_vth. Absolute so that
  // re-applying the same fault is idempotent — the lifetime engine
  // re-injects a row's fault list into its persistent measurement
  // template on every circuit check.
  void set_vth_outlier(double offset_v) {
    const double vth = vth_nominal_ + offset_v;
    params_.vth = vth < kVthMin ? kVthMin : (vth > kVthMax ? kVthMax : vth);
  }

  static constexpr double kVthMin = 0.01;  // V: effectively always-on
  static constexpr double kVthMax = 1.5;   // V: off at any on-chip gate drive

  void reset_state() override {
    cgs_c_.reset();
    cgd_c_.reset();
    cdb_c_.reset();
    csb_c_.reset();
  }
  void save_state(std::vector<double>& out) const override;
  void load_state(const double*& in) override;
  void append_params(std::vector<double>& out) const override {
    params_.append_to(out);
  }

 private:
  NodeId d_, g_, s_;
  MosfetParams params_;
  const double vth_nominal_ = params_.vth;  // pre-aging |V_th| for outliers
  CapCompanion cgs_c_, cgd_c_, cdb_c_, csb_c_;
  // topology() summary cache: ekv_switch_resistance / ekv_off_leak are
  // pure in (params, |V_th|) but cost transcendental evaluations, and the
  // STA engine re-summarizes every device per analysis. |V_th| is the only
  // parameter the aging / fault hooks mutate, so it is the cache key.
  mutable double sum_vth_ = -1.0;
  mutable double sum_r_on_ = 0.0;
  mutable double sum_g_off_ = 0.0;
};

}  // namespace nemtcam::devices
