// Linear passive elements: resistor and capacitor.
#pragma once

#include "spice/Device.h"
#include "spice/Stamper.h"

namespace nemtcam::devices {

using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;

class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double ohms);

  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;

  double resistance() const noexcept { return ohms_; }

  void append_params(std::vector<double>& out) const override {
    out.push_back(ohms_);
  }

 private:
  NodeId a_, b_;
  double ohms_;
};

// Embeddable companion for a fixed linear capacitance, shared by Capacitor
// and the composite devices' parasitics (MOSFET/FeFET/diode). Backward
// Euler uses the previous accepted voltage directly (i = C·(v − v_prev)/dt);
// trapezoidal additionally carries the previous step's current
// (i = 2C·(v − v_prev)/dt − i_prev) for second-order accuracy, on internal
// nodes too. Open in DC analysis. The companion is linear with a fixed
// conductance and history current, so stamp_fixed() runs once per Newton
// solve, from the owner's Device::stamp_fixed; commit() runs exactly once
// per accepted step (the engine guarantees rejected steps never reach
// commit, so i_prev stays consistent under LTE step rejection).
class CapCompanion {
 public:
  explicit CapCompanion(double farads = 0.0) : farads_(farads) {}

  void stamp_fixed(Stamper& s, const StampContext& ctx, NodeId a,
                   NodeId b) const;
  void commit(const StampContext& ctx, NodeId a, NodeId b);

  double capacitance() const noexcept { return farads_; }

  // Drops the carried current history (owner's reset_state forwards here).
  void reset() { i_prev_ = 0.0; }

  // The carried current history is the companion's dynamic state; the
  // owner's save_state/load_state forward here.
  void save(std::vector<double>& out) const { out.push_back(i_prev_); }
  void load(const double*& in) { i_prev_ = *in++; }

 private:
  double farads_;
  double i_prev_ = 0.0;  // used by the trapezoidal companion
};

// Linear capacitor: a CapCompanion between two nodes.
class Capacitor final : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double farads);

  void stamp_fixed(Stamper& s, const StampContext& ctx) override {
    c_.stamp_fixed(s, ctx, a_, b_);
  }
  void commit(const StampContext& ctx) override { c_.commit(ctx, a_, b_); }
  spice::DeviceTopology topology() const override;

  double capacitance() const noexcept { return c_.capacitance(); }

  void reset_state() override { c_.reset(); }
  void save_state(std::vector<double>& out) const override { c_.save(out); }
  void load_state(const double*& in) override { c_.load(in); }
  void append_params(std::vector<double>& out) const override {
    out.push_back(c_.capacitance());
  }

 private:
  NodeId a_, b_;
  CapCompanion c_;
};

}  // namespace nemtcam::devices
