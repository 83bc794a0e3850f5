// Ultra-dense 2-FeFET TCAM baseline (Fig. 2(d), Yin et al. TCAS-II'18).
//
// Per cell, two FeFETs in parallel between the matchline and ground,
// gates on SL and SL̄:
//   F1: D=ML, G=SL,  S=GND     F2: D=ML, G=SL̄, S=GND
// Encoding: stored '1' → F1 high-V_th, F2 low-V_th; '0' → mirrored;
// 'X' → both high-V_th. A mismatch puts VDD on the gate of a low-V_th
// device, which discharges ML; matches see only HVT subthreshold leak.
//
// Writes drive SL/SL̄ to ±4 V for 10 ns (polarization switching). The
// 4 V line swing is what makes the write energy ~13× the 3T2N's.
#pragma once

#include "tcam/TcamRow.h"

namespace nemtcam::tcam {

class Fefet2FRow final : public TcamRow {
 public:
  Fefet2FRow(int width, int array_rows, const Calibration& cal);

  TcamKind kind() const override { return TcamKind::Fefet2F; }

  struct FefetStates {
    bool f1_low_vth;
    bool f2_low_vth;
  };
  // Also the 4T2F row's encoding (F1 ↔ Fa, F2 ↔ Fb).
  static FefetStates states_for(Ternary t);
};

}  // namespace nemtcam::tcam
