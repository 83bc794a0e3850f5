// 2-transistor / 2-RRAM TCAM baseline (Fig. 2(b), Li et al. JSSC'14 style).
//
// Per cell, two branches between the matchline and ground:
//   branch A: ML → Ra → mid_a → Ma(gate=SL)  → GND
//   branch B: ML → Rb → mid_b → Mb(gate=SL̄) → GND
// Encoding: stored '1' → Ra=HRS, Rb=LRS; '0' → Ra=LRS, Rb=HRS;
// 'X' → both HRS. A mismatch routes the asserted searchline's branch
// through the LRS device and discharges ML; a match leaks only through
// the 2 MΩ HRS path (the finite ON/OFF-ratio weakness the paper notes).
//
// Writes reuse the matchline as the bipolar write line (Li et al.): a set
// phase at +1.8 V with the set-target branch gated on, then a reset phase
// at −1.2 V for the other branch. Writes are current-driven — this is
// where the ~46 pJ/row cost comes from.
#pragma once

#include "tcam/TcamRow.h"

namespace nemtcam::tcam {

class Rram2T2RRow final : public TcamRow {
 public:
  Rram2T2RRow(int width, int array_rows, const Calibration& cal);

  TcamKind kind() const override { return TcamKind::Rram2T2R; }

  // Device-to-device LRS/HRS variation (log-normal sigma, natural log)
  // drawn from the seed and applied to every RRAM of the search circuit
  // before each search; used by the Monte-Carlo variation ablation.
  void set_resistance_sigma(double sigma_log) { sigma_log_ = sigma_log; }
  void set_variation_seed(std::uint64_t seed) { seed_ = seed; }

  struct RramStates {
    bool a_lrs;
    bool b_lrs;
  };
  static RramStates states_for(Ternary t);

 protected:
  void rebind_devices(spice::Circuit& ckt) override;

 private:
  double sigma_log_ = 0.0;
  std::uint64_t seed_ = 1;
  bool varied_ = false;  // the search circuit carries drawn windows
};

}  // namespace nemtcam::tcam
