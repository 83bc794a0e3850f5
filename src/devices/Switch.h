// Ideal externally-controlled switch (testing and idealized peripherals).
#pragma once

#include "spice/Device.h"
#include "spice/Stamper.h"

namespace nemtcam::devices {

using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;

class Switch final : public Device {
 public:
  Switch(std::string name, NodeId a, NodeId b, double r_on = 1.0,
         double r_off = 1e12, bool closed = false);

  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;

  double r_on() const noexcept { return r_on_; }
  double r_off() const noexcept { return r_off_; }
  void set_closed(bool closed) noexcept { closed_ = closed; }

  void save_state(std::vector<double>& out) const override {
    out.push_back(closed_ ? 1.0 : 0.0);
  }
  void load_state(const double*& in) override { closed_ = *in++ != 0.0; }
  void append_params(std::vector<double>& out) const override {
    out.insert(out.end(), {r_on_, r_off_});
  }

 private:
  NodeId a_, b_;
  double r_on_, r_off_;
  bool closed_;
};

}  // namespace nemtcam::devices
