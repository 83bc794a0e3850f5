// Junction diode (Shockley model with optional series resistance and
// junction capacitance) — completes the simulator's elementary device set
// and models the well/junction clamps in peripheral circuits.
#pragma once

#include "devices/Passive.h"
#include "spice/Device.h"
#include "spice/Stamper.h"

namespace nemtcam::devices {

using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;

struct DiodeParams {
  double i_sat = 1e-15;   // saturation current (A)
  double n_ideality = 1.0;
  double c_junction = 0.0;  // zero-bias junction capacitance (F), linearized
};

class Diode final : public Device {
 public:
  Diode(std::string name, NodeId anode, NodeId cathode, DiodeParams params = {});

  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  void stamp(Stamper& s, const StampContext& ctx) override;
  void commit(const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;

  // Diode current at a given forward voltage (model evaluation, for tests).
  double current_at(double v) const;

  const DiodeParams& params() const noexcept { return params_; }

  void reset_state() override { cj_c_.reset(); }
  void save_state(std::vector<double>& out) const override {
    cj_c_.save(out);
  }
  void load_state(const double*& in) override { cj_c_.load(in); }
  void append_params(std::vector<double>& out) const override {
    out.insert(out.end(),
               {params_.i_sat, params_.n_ideality, params_.c_junction});
  }

 private:
  NodeId anode_, cathode_;
  DiodeParams params_;
  CapCompanion cj_c_;
};

}  // namespace nemtcam::devices
