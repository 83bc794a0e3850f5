// Spin-transfer-torque magnetic tunnel junction (STT-MTJ) compact model —
// the storage element of the MRAM TCAM baseline the paper cites ([5],
// Matsunaga et al.).
//
// Two-terminal resistive element with magnetization state m ∈ [0,1]
// (1 = parallel/low-R). The defining limitation vs RRAM/FeFET is the low
// ON/OFF ratio: TMR ≈ 150% gives R_AP/R_P ≈ 2.5 — which is why MRAM TCAMs
// need per-cell sensing instead of bare wired-NOR matchlines. Switching is
// current-driven and threshold-gated: |I| must exceed the critical current
// I_c, with switching speed growing with overdrive (τ ∝ 1/(I/I_c − 1)).
// Positive current (top → bottom) drives toward parallel.
#pragma once

#include "spice/Device.h"
#include "spice/Stamper.h"

namespace nemtcam::devices {

using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;

struct MtjParams {
  double r_parallel = 3e3;        // low-resistance state (Ω)
  double r_antiparallel = 7.5e3;  // high-resistance state (Ω), TMR = 150 %
  double i_critical = 60e-6;      // STT threshold current (A)
  // Reference switching time at 1.5× overdrive: τ(I) = t_ref·0.5/(I/Ic − 1).
  double t_switch_ref = 10e-9;
};

class Mtj final : public Device {
 public:
  Mtj(std::string name, NodeId top, NodeId bottom, MtjParams params = {});

  void stamp_fixed(Stamper& s, const StampContext& ctx) override;
  void commit(const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;
  double max_dt_hint() const override;

  double state() const noexcept { return m_; }
  void set_state(double m);
  void set_parallel(bool parallel) { set_state(parallel ? 1.0 : 0.0); }
  bool is_parallel() const noexcept { return m_ > 0.5; }
  double resistance() const noexcept;
  // Settle telemetry (state crossing 0.9 toward P / 0.1 toward AP).
  double t_parallel_complete() const noexcept { return t_par_; }
  double t_antiparallel_complete() const noexcept { return t_ap_; }

  const MtjParams& params() const noexcept { return params_; }

  void reset_state() override {
    t_par_ = -1.0;
    t_ap_ = -1.0;
  }
  void save_state(std::vector<double>& out) const override {
    out.insert(out.end(), {m_, t_par_, t_ap_});
  }
  void load_state(const double*& in) override {
    m_ = in[0];
    t_par_ = in[1];
    t_ap_ = in[2];
    in += 3;
  }
  void append_params(std::vector<double>& out) const override {
    out.insert(out.end(), {params_.r_parallel, params_.r_antiparallel,
                           params_.i_critical, params_.t_switch_ref});
  }

 private:
  NodeId top_, bottom_;
  MtjParams params_;
  double m_ = 1.0;
  double t_par_ = -1.0;
  double t_ap_ = -1.0;
};

}  // namespace nemtcam::devices
