// Inductor with a branch-current unknown and a Backward-Euler companion.
// DC: a short (v_a = v_b). Transient: v = L·di/dt.
#pragma once

#include "spice/Device.h"
#include "spice/Stamper.h"

namespace nemtcam::devices {

using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;

class Inductor final : public Device {
 public:
  Inductor(std::string name, NodeId a, NodeId b, double henries);

  int branch_count() const override { return 1; }
  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  void commit(const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;

  double inductance() const noexcept { return henries_; }
  double current() const noexcept { return i_prev_; }

  void reset_state() override { i_prev_ = 0.0; }
  void save_state(std::vector<double>& out) const override {
    out.push_back(i_prev_);
  }
  void load_state(const double*& in) override { i_prev_ = *in++; }
  void append_params(std::vector<double>& out) const override {
    out.push_back(henries_);
  }

 private:
  NodeId a_, b_;
  double henries_;
  double i_prev_ = 0.0;
};

}  // namespace nemtcam::devices
