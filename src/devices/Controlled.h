// Linear controlled sources (SPICE E/G/F/H elements), used for behavioral
// peripheral modeling (sense amplifiers, replica drivers) and netlists.
#pragma once

#include "spice/Device.h"
#include "spice/Stamper.h"

namespace nemtcam::devices {

using spice::BranchId;
using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;

// E element: v(p,m) = gain · v(cp,cm).
class Vcvs final : public Device {
 public:
  Vcvs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm, double gain);

  int branch_count() const override { return 1; }
  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;
  void append_params(std::vector<double>& out) const override {
    out.push_back(gain_);
  }

 private:
  NodeId p_, m_, cp_, cm_;
  double gain_;
};

// G element: i(p→m) = gm · v(cp,cm).
class Vccs final : public Device {
 public:
  Vccs(std::string name, NodeId p, NodeId m, NodeId cp, NodeId cm, double gm);

  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;
  void append_params(std::vector<double>& out) const override {
    out.push_back(gm_);
  }

 private:
  NodeId p_, m_, cp_, cm_;
  double gm_;
};

// F element: i(p→m) = gain · i(controlling branch). The controlling
// element must own an MNA branch (a VSource, Inductor, Vcvs or Ccvs).
class Cccs final : public Device {
 public:
  Cccs(std::string name, NodeId p, NodeId m, const Device& controlling,
       double gain);

  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;
  void append_params(std::vector<double>& out) const override {
    out.push_back(gain_);
  }

 private:
  NodeId p_, m_;
  const Device* controlling_;
  double gain_;
};

// H element: v(p,m) = r · i(controlling branch).
class Ccvs final : public Device {
 public:
  Ccvs(std::string name, NodeId p, NodeId m, const Device& controlling,
       double transresistance);

  int branch_count() const override { return 1; }
  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;
  void append_params(std::vector<double>& out) const override {
    out.push_back(r_);
  }

 private:
  NodeId p_, m_;
  const Device* controlling_;
  double r_;
};

}  // namespace nemtcam::devices
