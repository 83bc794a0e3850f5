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

  void stamp(Stamper& s, const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;

  double resistance() const noexcept { return ohms_; }

 private:
  NodeId a_, b_;
  double ohms_;
};

// Linear capacitor. Backward Euler uses the previous accepted voltage
// directly (i = C·(v − v_prev)/dt); trapezoidal additionally carries the
// previous step's current (i = 2C·(v − v_prev)/dt − i_prev) for
// second-order accuracy. Open in DC analysis.
class Capacitor final : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double farads);

  void stamp(Stamper& s, const StampContext& ctx) override;
  void commit(const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;

  double capacitance() const noexcept { return farads_; }

  void reset_state() override { i_prev_ = 0.0; }

 private:
  double current_at(const StampContext& ctx) const;

  NodeId a_, b_;
  double farads_;
  double i_prev_ = 0.0;  // used by the trapezoidal companion
};

// Embeddable companion for a fixed linear capacitance owned by a composite
// device (MOSFET/FeFET/diode parasitics): same Backward-Euler/trapezoidal
// scheme as Capacitor, carrying the previous step's current so the
// trapezoidal form stays second-order on internal nodes too. stamp() runs
// at every Newton iterate; commit() exactly once per accepted step (the
// engine guarantees rejected steps never reach commit, so i_prev stays
// consistent under LTE step rejection).
class CapCompanion {
 public:
  explicit CapCompanion(double farads = 0.0) : farads_(farads) {}

  void stamp(Stamper& s, const StampContext& ctx, NodeId a, NodeId b) const;
  void commit(const StampContext& ctx, NodeId a, NodeId b);

  double capacitance() const noexcept { return farads_; }

  // Drops the carried current history (owner's reset_state forwards here).
  void reset() { i_prev_ = 0.0; }

 private:
  double current_at(const StampContext& ctx, NodeId a, NodeId b) const;

  double farads_;
  double i_prev_ = 0.0;  // used by the trapezoidal companion
};

}  // namespace nemtcam::devices
