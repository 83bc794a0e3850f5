// 4-transistor / 2-FeFET TCAM (Fig. 2(c), Yin et al. DATE'17).
//
// Per cell, two branches between the matchline and ground:
//   branch A: ML → Ma(gate=SL)  → mid_a → Fa → GND
//   branch B: ML → Mb(gate=SL̄) → mid_b → Fb → GND
// plus two access transistors that couple the FeFET gates to the bitlines
// when the wordline is asserted (program path). During a search the FeFET
// gates are biased at the read level through the same access devices, so —
// unlike the 2FeFET cell — program-level voltages never appear on
// half-selected cells (the disturb robustness the paper credits this
// design with, at the cost of twice the transistors).
//
// Encoding matches the 2FeFET row (Fefet2FRow::states_for): stored '1' →
// Fa high-V_th, Fb low-V_th.
#pragma once

#include "tcam/TcamRow.h"

namespace nemtcam::tcam {

class Fefet4T2FRow final : public TcamRow {
 public:
  Fefet4T2FRow(int width, int array_rows, const Calibration& cal);

  TcamKind kind() const override { return TcamKind::Fefet4T2F; }
};

}  // namespace nemtcam::tcam
