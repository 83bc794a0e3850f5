// 16-transistor SRAM-based TCAM baseline (Fig. 2(a), Pagiamtzis survey).
//
// Per cell: two 6T SRAM bit cells (d1 stores the "match-on-0" enable,
// d2 the "match-on-1" enable) plus a 4-transistor NOR compare network:
//   path A: ML → Mc1(gate=d1) → Mc2(gate=SL̄) → GND
//   path B: ML → Mc3(gate=d2) → Mc4(gate=SL)  → GND
// Encoding: '1' → d1=1,d2=0; '0' → d1=0,d2=1; 'X' → d1=d2=0.
// Writes drive four bitlines per column through the access devices.
#pragma once

#include "tcam/TcamRow.h"

namespace nemtcam::tcam {

class Sram16TRow final : public TcamRow {
 public:
  Sram16TRow(int width, int array_rows, const Calibration& cal);

  TcamKind kind() const override { return TcamKind::Sram16T; }

  struct CellBits {
    bool d1;
    bool d2;
  };
  static CellBits bits_for(Ternary t);
};

}  // namespace nemtcam::tcam
