#include "lifetime/Degradation.h"

#include "devices/Fefet.h"
#include "devices/Mosfet.h"
#include "devices/NemRelay.h"
#include "devices/Rram.h"

namespace nemtcam::lifetime {

namespace {

// NEM: contact resistance r_on(w) = r_on0·(1 + kNemROnFactor·w²). At
// w=1 the nominal 1 kΩ contact reaches 20 kΩ — measurably slowing the ML
// discharge through the compare relays.
constexpr double kNemROnFactor = 19.0;
// NEM: dielectric charging drifts pull-in DOWNWARD by kNemVpiDrift·w
// volts (trapped charge assists actuation). When the aged V_PI reaches
// the refresh level V_R, one-shot refresh starts actuating beams — the
// wear-free-refresh property the 3T2N design rests on is lost, refresh
// itself begins consuming endurance, and the row runs away to wear-out.
// 0.06 V/unit-wear puts the window-loss threshold at w = 0.5 for the
// standard calibration (V_PI=0.53, V_R=0.5).
constexpr double kNemVpiDrift = 0.06;
// NEM: wear-dependent gate–body leakage (S at w=1, quadratic in w).
constexpr double kNemGateLeak = 2e-10;
// All technologies: BTI-style cell-transistor Vth shift (V at w=1).
constexpr double kMosVthShift = 0.05;
// RRAM window collapse: r_on(w) = r_on0·(1 + kRramROnFactor·w),
// r_off(w) = r_off0/(1 + kRramROffFactor·w).
constexpr double kRramROnFactor = 1.5;
constexpr double kRramROffFactor = 4.0;
// FeFET: total memory-window closure at w=1 (V), split symmetrically.
constexpr double kFefetWindowClose = 0.4;
// Retention derating: retention(w) = T₀/(1 + kRetentionWearFactor·w).
// Gate leakage grows with wear, so aged arrays must refresh more often.
constexpr double kRetentionWearFactor = 3.0;
// Analytic delay/energy fallbacks (used only past the circuit-check
// budget): scale(w) = 1 + factor·w².
constexpr double kDelayFallbackFactor = 0.5;
constexpr double kEnergyFallbackFactor = 0.1;

}  // namespace

double Degradation::retention_scale(double w) const {
  return 1.0 / (1.0 + kRetentionWearFactor * w);
}

double Degradation::window_loss_wear(double v_pi0, double v_refresh) const {
  const double w = (v_pi0 - v_refresh) / kNemVpiDrift;
  return w > 0.0 ? w : 0.0;
}

double Degradation::delay_scale(double w) const {
  return 1.0 + kDelayFallbackFactor * w * w;
}

double Degradation::energy_scale(double w) const {
  return 1.0 + kEnergyFallbackFactor * w * w;
}

void Degradation::apply_to_circuit(spice::Circuit& circuit, double w,
                                   double w_prev) const {
  const double dw = w - w_prev;
  for (const auto& dev : circuit.devices()) {
    if (auto* relay = dynamic_cast<devices::NemRelay*>(dev.get())) {
      // Ratio form keeps the law exact across repeated calls whatever the
      // design-nominal r_on was (the current value already carries the
      // w_prev aging).
      const double ratio = (1.0 + kNemROnFactor * w * w) /
                           (1.0 + kNemROnFactor * w_prev * w_prev);
      relay->set_contact_resistance(relay->params().r_on * ratio);
      relay->set_gate_leakage(kNemGateLeak * w * w);
      relay->shift_pull_in(-kNemVpiDrift * dw);
    } else if (auto* mos = dynamic_cast<devices::Mosfet*>(dev.get())) {
      mos->shift_vth(kMosVthShift * dw);
    } else if (auto* rram = dynamic_cast<devices::Rram*>(dev.get())) {
      const double on_ratio = (1.0 + kRramROnFactor * w) /
                              (1.0 + kRramROnFactor * w_prev);
      const double off_ratio = (1.0 + kRramROffFactor * w_prev) /
                               (1.0 + kRramROffFactor * w);
      rram->set_resistance_window(rram->params().r_on * on_ratio,
                                  rram->params().r_off * off_ratio);
    } else if (auto* fefet = dynamic_cast<devices::Fefet*>(dev.get())) {
      const double half = 0.5 * kFefetWindowClose * dw;
      fefet->set_memory_window(fefet->params().vth_low + half,
                               fefet->params().vth_high - half);
    }
  }
}

}  // namespace nemtcam::lifetime
