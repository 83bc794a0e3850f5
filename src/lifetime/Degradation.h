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
// Their magnitudes are constants (Degradation.cpp), chosen to give those
// shapes a plausible scale, not paper-pinned values; the engine measures
// the aged circuit and lets the measured delay/energy override the
// analytic fallbacks.
#pragma once

#include "spice/Circuit.h"

namespace nemtcam::lifetime {

class Degradation {
 public:
  // Fraction of rated retention an array whose worst live cell sits at
  // wear w can still guarantee.
  double retention_scale(double w) const;

  // Wear fraction at which the aged pull-in voltage reaches the refresh
  // level (one-shot refresh starts actuating beams); 0 when the fresh
  // pull-in already sits at or below it.
  double window_loss_wear(double v_pi0, double v_refresh) const;

  // Analytic aged-delay/energy fallbacks for when the circuit-check
  // budget is spent.
  double delay_scale(double w) const;
  double energy_scale(double w) const;

  // Ages every cell device in an elaborated row circuit from wear level
  // `w_prev` to `w` (both as fractions of rated cycles). Absolute-setter
  // hooks get the aged target directly; relative hooks (Vth, V_PI) get
  // the increment — so repeated calls with increasing wear are exact, and
  // a freshly (re)built circuit starts from w_prev = 0. Mutates stamp
  // values only: safe between template replays.
  void apply_to_circuit(spice::Circuit& circuit, double w,
                        double w_prev) const;
};

}  // namespace nemtcam::lifetime
