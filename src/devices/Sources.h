// Independent sources driven by spice::Waveform.
#pragma once

#include <memory>

#include "spice/Device.h"
#include "spice/Stamper.h"
#include "spice/Waveform.h"

namespace nemtcam::devices {

using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;
using spice::Waveform;

// Ideal (optionally series-resistive) voltage source. Uses one MNA branch
// unknown: the current flowing into the + terminal.
class VSource final : public Device {
 public:
  VSource(std::string name, NodeId plus, NodeId minus,
          std::unique_ptr<Waveform> wave, double series_ohms = 0.0);
  // Convenience: DC level.
  VSource(std::string name, NodeId plus, NodeId minus, double dc_volts,
          double series_ohms = 0.0);

  int branch_count() const override { return 1; }
  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;
  double delivered_power(const StampContext& ctx) const override;
  std::vector<double> breakpoints(double t_end) const override;

  NodeId plus() const noexcept { return plus_; }

  // Replaces the drive waveform (transaction drivers reuse one netlist
  // across operations).
  void set_wave(std::unique_ptr<Waveform> wave);

  bool rebind_wave(std::unique_ptr<Waveform> wave) override {
    set_wave(std::move(wave));
    return true;
  }

  // The drive waveform is not a parameter (spice/Device.h).
  void append_params(std::vector<double>& out) const override {
    out.push_back(series_ohms_);
  }

 private:
  NodeId plus_, minus_;
  std::unique_ptr<Waveform> wave_;
  double series_ohms_;
};

// Ideal current source: current value(t) flows from `from` to `to` through
// the source (i.e. it is injected into `to`).
class ISource final : public Device {
 public:
  ISource(std::string name, NodeId from, NodeId to,
          std::unique_ptr<Waveform> wave);
  ISource(std::string name, NodeId from, NodeId to, double dc_amps);

  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;
  double delivered_power(const StampContext& ctx) const override;
  std::vector<double> breakpoints(double t_end) const override;

  bool rebind_wave(std::unique_ptr<Waveform> wave) override {
    wave_ = std::move(wave);
    return true;
  }

 private:
  NodeId from_, to_;
  std::unique_ptr<Waveform> wave_;
};

}  // namespace nemtcam::devices
