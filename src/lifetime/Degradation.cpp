#include "lifetime/Degradation.h"

#include <limits>

#include "devices/Fefet.h"
#include "devices/Mosfet.h"
#include "devices/NemRelay.h"
#include "devices/Rram.h"

namespace nemtcam::lifetime {

double Degradation::window_loss_wear(double v_pi0, double v_refresh) const {
  if (cfg_.nem_vpi_drift <= 0.0)
    return std::numeric_limits<double>::infinity();
  const double w = (v_pi0 - v_refresh) / cfg_.nem_vpi_drift;
  return w > 0.0 ? w : 0.0;
}

void Degradation::apply_to_circuit(spice::Circuit& circuit, double w,
                                   double w_prev) const {
  const double dw = w - w_prev;
  for (const auto& dev : circuit.devices()) {
    if (auto* relay = dynamic_cast<devices::NemRelay*>(dev.get())) {
      // Ratio form keeps the law exact across repeated calls whatever the
      // design-nominal r_on was (the current value already carries the
      // w_prev aging).
      const double ratio = (1.0 + cfg_.nem_r_on_factor * w * w) /
                           (1.0 + cfg_.nem_r_on_factor * w_prev * w_prev);
      relay->set_contact_resistance(relay->params().r_on * ratio);
      relay->set_gate_leakage(cfg_.nem_gate_leak * w * w);
      relay->shift_pull_in(-cfg_.nem_vpi_drift * dw);
    } else if (auto* mos = dynamic_cast<devices::Mosfet*>(dev.get())) {
      mos->shift_vth(cfg_.mos_vth_shift * dw);
    } else if (auto* rram = dynamic_cast<devices::Rram*>(dev.get())) {
      const double on_ratio = (1.0 + cfg_.rram_r_on_factor * w) /
                              (1.0 + cfg_.rram_r_on_factor * w_prev);
      const double off_ratio = (1.0 + cfg_.rram_r_off_factor * w_prev) /
                               (1.0 + cfg_.rram_r_off_factor * w);
      rram->set_resistance_window(rram->params().r_on * on_ratio,
                                  rram->params().r_off * off_ratio);
    } else if (auto* fefet = dynamic_cast<devices::Fefet*>(dev.get())) {
      const double half = 0.5 * cfg_.fefet_window_close * dw;
      fefet->set_memory_window(fefet->params().vth_low + half,
                               fefet->params().vth_high - half);
    }
  }
}

}  // namespace nemtcam::lifetime
