// Wear → device-parameter aging laws, and their application to an
// elaborated row circuit.
//
// This is the degradation-feedback half of the multi-rate contract
// (DESIGN.md §11): behavioral wear accumulated by the lifetime engine is
// translated into compact-model parameter shifts, applied IN PLACE to a
// SearchTemplate's elaborated circuit through the devices' clamped aging
// hooks (NemRelay::set_contact_resistance / shift_pull_in,
// Mosfet::shift_vth, Rram::set_resistance_window,
// Fefet::set_memory_window). Because the hooks only change stamp values —
// never topology — the template's stamp pattern, symbolic LU, and cached
// ERC report all survive, and the next search() replays the aged circuit
// at full template speed.
//
// Laws are smooth monotone functions of the wear fraction w = cycles/rated
// with literature-shaped forms (quadratic contact-resistance growth from
// asperity damage, linear BTI-style Vth drift, hyperbolic RRAM window
// collapse, symmetric FeFET window closure from polarization fatigue).
// Absolute magnitudes are calibration-class knobs (AgingConfig), not
// paper-pinned values; the engine measures the aged circuit and lets the
// measured delay/energy override the analytic fallbacks.
#pragma once

#include "spice/Circuit.h"

namespace nemtcam::lifetime {

struct AgingConfig {
  // NEM: contact resistance r_on(w) = r_on0·(1 + nem_r_on_factor·w²).
  // At w=1 the nominal 1 kΩ contact reaches 20 kΩ — measurably slowing
  // the ML discharge through the compare relays.
  double nem_r_on_factor = 19.0;
  // NEM: dielectric charging drifts pull-in DOWNWARD by nem_vpi_drift·w
  // volts (trapped charge assists actuation). When the aged V_PI reaches
  // the refresh level V_R, one-shot refresh starts actuating beams — the
  // wear-free-refresh property the 3T2N design rests on is lost, refresh
  // itself begins consuming endurance, and the row runs away to wear-out.
  // Default 0.06 V/unit-wear puts the window-loss threshold at w = 0.5
  // for the standard calibration (V_PI=0.53, V_R=0.5).
  double nem_vpi_drift = 0.06;
  // NEM: wear-dependent gate–body leakage (S at w=1, quadratic in w).
  double nem_gate_leak = 2e-10;
  // All technologies: BTI-style cell-transistor Vth shift (V at w=1).
  double mos_vth_shift = 0.05;
  // RRAM window collapse: r_on(w) = r_on0·(1 + rram_r_on_factor·w),
  // r_off(w) = r_off0/(1 + rram_r_off_factor·w).
  double rram_r_on_factor = 1.5;
  double rram_r_off_factor = 4.0;
  // FeFET: total memory-window closure at w=1 (V), split symmetrically.
  double fefet_window_close = 0.4;
  // Retention derating: retention(w) = T₀/(1 + retention_wear_factor·w).
  // Gate leakage grows with wear, so aged arrays must refresh more often.
  double retention_wear_factor = 3.0;
  // Analytic delay/energy fallbacks (used only past the circuit-check
  // budget): scale(w) = 1 + factor·w².
  double delay_fallback_factor = 0.5;
  double energy_fallback_factor = 0.1;
};

class Degradation {
 public:
  explicit Degradation(AgingConfig cfg = {}) : cfg_(cfg) {}

  // Fraction of rated retention an array whose worst live cell sits at
  // wear w can still guarantee.
  double retention_scale(double w) const {
    return 1.0 / (1.0 + cfg_.retention_wear_factor * w);
  }

  // Wear fraction at which the aged pull-in voltage reaches the refresh
  // level (one-shot refresh starts actuating beams); +inf when the drift
  // law never gets there.
  double window_loss_wear(double v_pi0, double v_refresh) const;

  // Analytic aged-delay/energy fallbacks for when the circuit-check
  // budget is spent.
  double delay_scale(double w) const {
    return 1.0 + cfg_.delay_fallback_factor * w * w;
  }
  double energy_scale(double w) const {
    return 1.0 + cfg_.energy_fallback_factor * w * w;
  }

  // Ages every cell device in an elaborated row circuit from wear level
  // `w_prev` to `w` (both as fractions of rated cycles). Absolute-setter
  // hooks get the aged target directly; relative hooks (Vth, V_PI) get
  // the increment — so repeated calls with increasing wear are exact, and
  // a freshly (re)built circuit starts from w_prev = 0. Mutates stamp
  // values only: safe between template replays.
  void apply_to_circuit(spice::Circuit& circuit, double w,
                        double w_prev) const;

 private:
  AgingConfig cfg_;
};

}  // namespace nemtcam::lifetime
