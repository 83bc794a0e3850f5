// Four-terminal nanoelectromechanical (NEM) relay compact model.
//
// Electrical behaviour (per the paper's Table I and Fig. 3/5):
//  - The gate–body capacitance C_GB depends on the beam position:
//    C_off = 15 aF when fully open, C_on = 20 aF when pulled in. The
//    companion model is charge-based so beam motion conserves charge on a
//    floating gate (this is what makes one-shot refresh analysis honest).
//  - The drain–source contact is a 1 kΩ metal contact when closed and an
//    air gap (~zero leakage, modelled as g_off = 1e-15 S) when open.
//    There is no threshold drop: the relay passes full rail.
//  - Actuation is hysteretic: the beam latches toward the gate when
//    |V_GB| ≥ V_PI (pull-in, 0.53 V) and releases when |V_GB| ≤ V_PO
//    (pull-out, 0.13 V); between the two the current mechanical target is
//    held — the hysteresis window one-shot refresh exploits.
//  - Mechanics: the normalized beam position z ∈ [0,1] traverses the gap
//    at constant rate 1/τ_mech (τ_mech = 2 ns); contact closes at z = 1.
//    Sub-step threshold crossings are located by linear interpolation of
//    V_GB inside the accepted step.
#pragma once

#include "spice/Device.h"
#include "spice/Stamper.h"

namespace nemtcam::devices {

using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;

struct NemRelayParams {
  double v_pi = 0.53;       // pull-in voltage (V)
  double v_po = 0.13;       // pull-out voltage (V)
  double c_on = 20e-18;     // C_GB when closed (F)
  double c_off = 15e-18;    // C_GB when open (F)
  double r_on = 1e3;        // contact resistance (Ω)
  double g_off = 1e-15;     // open-contact leakage conductance (S)
  double tau_mech = 2e-9;   // mechanical traversal time (s)
  double gate_leak_g = 0.0; // optional explicit G–B leakage (S)
  // Actuation responds to |V_GB| (electrostatic force is polarity-blind).
  bool bipolar_actuation = true;
  // Pull-in instability point: inside the hysteresis window the beam
  // continues toward contact only if it has already travelled past this
  // fraction of the gap; otherwise the spring wins and it returns to rest.
  // 1/3 of the gap is the classical electrostatic pull-in limit. This is
  // what makes the cell immune to sub-τ_mech coupling spikes on the gate
  // (e.g. the wordline edge bootstrapping the storage node): a glitch can
  // start the beam moving, but cannot commit it.
  double z_critical = 1.0 / 3.0;
};

class NemRelay final : public Device {
 public:
  NemRelay(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
           NemRelayParams params = {});

  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  void commit(const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;
  double max_dt_hint() const override;
  double event_function(const StampContext& ctx) const override;

  // Forces the mechanical state (used to establish stored data before an
  // experiment). Also snaps the gate charge to match a given V_GB.
  void set_state(bool closed, double v_gb = 0.0);

  // Replay: drop the contact-arrival telemetry only. Mechanical position
  // and gate charge are primary state (re-seeded via set_state by the
  // transaction binder); fault pins (stuck_) persist on purpose.
  void reset_state() override {
    t_closed_ = -1.0;
    t_opened_ = -1.0;
  }

  // --- Fault-injection / degradation hooks (see fault/FaultInjector and
  // lifetime/Degradation) ---
  // Welds the beam: stuck-closed models contact stiction/welding, stuck-
  // open a fractured beam. The mechanical state is pinned — actuation,
  // arrival events, and in-flight dt hints are disabled — while the gate
  // capacitance keeps the pinned position's value and the charge companion
  // continues to conserve charge.
  void force_stuck(bool closed);
  bool stuck() const noexcept { return stuck_; }
  // Contact-resistance drift (cycling wear): replaces r_on. Clamped to
  // [kROnMin, kROnMax] so multi-year wear integration saturates at a
  // physical bound instead of walking the contact negative or into a
  // better-than-metal value.
  void set_contact_resistance(double r_on);
  // Gate–body leakage (retention loss, clamped to [0, kLeakMax]) and
  // open-contact leakage.
  void set_gate_leakage(double g);
  void set_off_leakage(double g);
  // Dielectric-charging pull-in drift: shifts V_PI by dv (negative =
  // trapped charge assists actuation, the OSR-threatening direction).
  // Clamped so the hysteresis window stays open (V_PI ≥ V_PO + kWindowMin
  // — an inverted window is the ERC-visible value.hysteresis-inverted
  // defect, not a state aging may reach) and so the beam stays actuatable
  // in principle (V_PI ≤ kVpiMax).
  void shift_pull_in(double dv);
  // Device-to-device variation: replaces V_PI and V_PO in place (the 3T2N
  // refresh re-draws them before every replay of its circuit).
  void set_thresholds(double v_pi, double v_po);

  // Physical saturation bounds for the degradation hooks.
  static constexpr double kROnMin = 1.0;      // Ω: ideal metal contact
  static constexpr double kROnMax = 1e9;      // Ω: contact effectively open
  static constexpr double kLeakMax = 1e-6;    // S: gate dielectric shorted
  static constexpr double kWindowMin = 0.02;  // V: minimum hysteresis window
  static constexpr double kVpiMax = 1.5;      // V: beyond any on-chip drive

  bool contact() const noexcept { return position_ >= 1.0; }
  // Simulation time at which the beam last reached full contact / full
  // release (write-latency telemetry); negative if it never happened.
  double t_contact_closed() const noexcept { return t_closed_; }
  double t_contact_opened() const noexcept { return t_opened_; }
  double gate_capacitance() const noexcept;

  const NemRelayParams& params() const noexcept { return params_; }

 private:
  double effective_vgb(double v_gb) const;

  // One step of the hysteretic actuation law as a pure function of the
  // committed position and the step's |V_GB| endpoints: the latched target
  // and the signed time the beam is driven (+ toward contact). commit()
  // applies it; event_function() projects it to report arrival surfaces
  // without mutating state.
  struct MechDrive {
    bool target_closed;
    double drive_time;
  };
  MechDrive drive_for(double v_now_eff, double v_before_eff, double dt) const;

  NodeId d_, g_, s_, b_;
  NemRelayParams params_;

  double position_ = 0.0;       // z ∈ [0,1]; 1 = contact closed
  bool target_closed_ = false;  // latched hysteresis target
  bool stuck_ = false;          // fault: mechanical state pinned
  double q_gb_ = 0.0;           // charge on the gate-body capacitance
  double t_closed_ = -1.0;
  double t_opened_ = -1.0;
};

}  // namespace nemtcam::devices
