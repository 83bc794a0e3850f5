// STT-MRAM TCAM baseline (after ref [5], Matsunaga et al.'s 9T/2MTJ cell;
// this realization uses the same divider-sense principle with 4
// transistors — the searchline drivers replace some of the original's
// per-cell buffering).
//
// Cell (per column):
//   SL ── M1 ── mid ── M2 ── SL̄          (MTJ resistive divider)
//   Ts: D=ML, G=mid, S=GND                (higher-V_t sense device)
//   Tacc: mid ↔ WBL, gate=WL              (write current steering; the
//                                          search grounds WL and WBL)
//
// Encoding: stored '1' → M1 antiparallel, M2 parallel. With complementary
// searchline drive, the divider puts mid ≈ 0.71 V on a mismatch (Ts
// discharges ML) and ≈ 0.29 V on a match. The TMR of only 150 % is the
// design's defining weakness: the match level sits uncomfortably close to
// V_th, so matched matchlines leak and don't-care cells (both MTJs AP,
// mid = 0.5 V) leak more — the "low ON/OFF ratio … limits the achievable
// array size" problem the paper attributes to MRAM/RRAM TCAMs, and why
// search here is the slowest of all the designs.
//
// Writes drive ±V_w across the SL→M1→mid→M2→SL̄ stack with the access
// transistor grounding mid: both junctions see super-critical current of
// opposite polarity, programming (P, AP) or (AP, P) in one phase —
// current-driven, hence "higher write power" (paper §I).
#pragma once

#include "tcam/TcamRow.h"

namespace nemtcam::tcam {

class Mram4T2MRow final : public TcamRow {
 public:
  Mram4T2MRow(int width, int array_rows, const Calibration& cal);

  TcamKind kind() const override { return TcamKind::Mram4T2M; }

  struct MtjStates {
    bool m1_parallel;
    bool m2_parallel;
  };
  static MtjStates states_for(Ternary t);
};

}  // namespace nemtcam::tcam
