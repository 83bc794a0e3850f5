// Ferroelectric FET compact model (2FeFET TCAM baseline).
//
// A MOSFET whose effective threshold is shifted by the ferroelectric
// polarization P ∈ [−1, +1]:
//     V_th,eff = V_th,mid − P·(V_th,high − V_th,low)/2.
// P moves only when |V_GS| exceeds the coercive voltage, at a rate
// proportional to the overdrive, saturating at ±1 — the envelope of the
// Preisach model of Ni et al. [11], which is exact for the full-swing
// ±4 V / 10 ns write pulses TCAM programming uses (no minor loops).
// The high write voltage is what makes the FeFET TCAM's write energy
// large: the bitline parasitics charge to 4 V instead of 1 V.
#pragma once

#include "devices/Mosfet.h"
#include "devices/Passive.h"

namespace nemtcam::devices {

struct FefetParams {
  MosfetParams fet = MosfetParams::nmos_lp();
  // Memory-window thresholds (Ni et al. [11]-style FeFET: ~1 V window
  // centred above VDD/2 so the HVT state is fully off at a VDD=1 V gate
  // and the LVT state conducts with moderate overdrive).
  double vth_low = 0.58;    // threshold in the low-V_th (erased, P=+1) state
  double vth_high = 1.58;   // threshold in the high-V_th (programmed, P=−1) state
  double v_coercive = 2.0;  // no polarization motion below this |V_GS| (V)
  double v_write = 4.0;     // nominal write drive (V)
  double t_write = 10e-9;   // polarization transition time at ±v_write (s)
  double c_fe = 0.05e-15;    // ferroelectric gate stack capacitance (F)
};

class Fefet final : public Device {
 public:
  Fefet(std::string name, NodeId d, NodeId g, NodeId s, FefetParams params = {});

  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  void stamp(Stamper& s, const StampContext& ctx) override;
  void commit(const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;
  double max_dt_hint() const override;
  double event_function(const StampContext& ctx) const override;

  double polarization() const noexcept { return p_; }
  void set_polarization(double p);
  // Simulation time at which polarization last crossed ±0.9 (write-latency
  // telemetry); negative if never.
  double t_program_complete() const noexcept { return t_program_; }
  double t_erase_complete() const noexcept { return t_erase_; }
  // Convenience: P=+1 (low V_th, conducts at VDD gate) or −1 (high V_th).
  void set_low_vth(bool low) { set_polarization(low ? 1.0 : -1.0); }
  // Aging hook (see lifetime/Degradation): polarization fatigue narrows the
  // memory window symmetrically toward its midpoint. Absolute setter,
  // clamped so the window never inverts (the ERC value.fefet-window defect
  // is a design error, not a state wear may reach):
  // vth_high ≥ vth_low + kWindowMin.
  void set_memory_window(double vth_low, double vth_high);
  static constexpr double kWindowMin = 0.05;  // V
  double vth_eff() const noexcept;
  bool is_low_vth() const noexcept { return p_ > 0.0; }

  void reset_state() override {
    cgfe_c_.reset();
    cgd_c_.reset();
    cdb_c_.reset();
    csb_c_.reset();
    moving_ = false;
    t_program_ = -1.0;
    t_erase_ = -1.0;
  }
  void save_state(std::vector<double>& out) const override;
  void load_state(const double*& in) override;
  void append_params(std::vector<double>& out) const override;

  const FefetParams& params() const noexcept { return params_; }

 private:
  NodeId d_, g_, s_;
  FefetParams params_;
  CapCompanion cgfe_c_, cgd_c_, cdb_c_, csb_c_;
  double p_ = -1.0;    // polarization state
  bool moving_ = false;  // last committed step had polarization in motion
  double t_program_ = -1.0;
  double t_erase_ = -1.0;
};

}  // namespace nemtcam::devices
