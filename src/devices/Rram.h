// Bipolar filamentary RRAM compact model (2T2R TCAM baseline).
//
// Parameters follow the paper's benchmarking settings (from refs [8][20]):
// R_ON/R_OFF = 20 kΩ/2 MΩ, set/reset drive 1.8 V/1.2 V, 10 ns write.
// The filament state w ∈ [0,1] interpolates conductance linearly; state
// motion is threshold-gated and rate-proportional to overdrive so that the
// nominal write drive completes a transition in t_write. The write is
// current-driven: while the device conducts at R_ON-scale resistance under
// 1.8 V for 10 ns, it burns the ~46 pJ/row the paper reports.
#pragma once

#include "spice/Device.h"
#include "spice/Stamper.h"

namespace nemtcam::devices {

using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;

struct RramParams {
  double r_on = 20e3;       // low-resistance state (Ω)
  double r_off = 2e6;       // high-resistance state (Ω)
  double v_set = 1.8;       // nominal set drive, positive polarity (V)
  double v_reset = 1.2;     // nominal reset drive, negative polarity (V)
  double vth_set = 0.9;     // no set motion below this forward bias (V)
  double vth_reset = 0.6;   // no reset motion below this reverse bias (V)
  double t_write = 10e-9;   // transition time at nominal drive (s)
  // Filament conductance grows superlinearly with the state variable
  // (G ∝ w^shape_exp): the conducting path carries little current until
  // it is nearly complete. Endpoints (R_ON at w=1, R_OFF at w=0) are
  // unaffected; only the mid-transition current profile (and hence write
  // energy) depends on this.
  double shape_exp = 3.0;
};

class Rram final : public Device {
 public:
  Rram(std::string name, NodeId top, NodeId bottom, RramParams params = {});

  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  void commit(const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;
  double max_dt_hint() const override;
  double event_function(const StampContext& ctx) const override;

  // Filament state: 1 = fully formed (R_ON), 0 = ruptured (R_OFF).
  double state() const noexcept { return w_; }
  void set_state(double w);
  // Aging hook (see lifetime/Degradation): cycling fatigue narrows the
  // resistance window — the residual filament thickens R_OFF downward and
  // oxygen-vacancy depletion raises R_ON. Absolute setter, clamped so the
  // window never inverts (the ERC value.rram-window defect is a design
  // error, not a state wear may reach): r_on ≥ kROnMin and
  // r_off ≥ kMinWindowRatio·r_on.
  void set_resistance_window(double r_on, double r_off);
  static constexpr double kROnMin = 100.0;       // Ω
  static constexpr double kMinWindowRatio = 2.0; // R_OFF/R_ON floor
  // Simulation time at which the filament last crossed 90% formed (set
  // complete) / 10% formed (reset complete); negative if never.
  double t_set_complete() const noexcept { return t_set_; }
  double t_reset_complete() const noexcept { return t_reset_; }
  double resistance() const noexcept;
  bool low_resistance() const noexcept { return w_ > 0.5; }

  void reset_state() override {
    moving_ = false;
    t_set_ = -1.0;
    t_reset_ = -1.0;
  }
  void save_state(std::vector<double>& out) const override;
  void load_state(const double*& in) override;
  void append_params(std::vector<double>& out) const override;

  const RramParams& params() const noexcept { return params_; }

 private:
  NodeId top_, bottom_;
  RramParams params_;
  double w_ = 0.0;
  bool moving_ = false;  // last committed step had the filament in motion
  double t_set_ = -1.0;
  double t_reset_ = -1.0;
};

}  // namespace nemtcam::devices
