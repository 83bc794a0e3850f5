// Conventional dynamic CMOS TCAM (after ref [4], Vinogradov et al.) — the
// paper's introduction baseline: denser than SRAM because the two ternary
// state bits are stored as charge on compare-transistor gates instead of
// in cross-coupled latches, but with plain capacitive storage and
// therefore row-by-row refresh (no hysteresis window, so one-shot refresh
// is impossible — exactly the contrast the 3T2N draws).
//
// Cell (per column, 6 transistors in this realization — ref [4] reports a
// 5T cell; the extra device here is the second write port that makes the
// ternary encoding symmetric; the dynamic-storage properties that matter
// for the comparison are identical):
//   BL  ── Tw1 ── stg1 (gate of Mc1)     path A: ML → Mc1 → Mc2(SL̄) → GND
//   BL̄ ── Tw2 ── stg2 (gate of Mc3)     path B: ML → Mc3 → Mc4(SL)  → GND
//
// Encoding: '1' → stg1 charged; '0' → stg2 charged; 'X' → both empty —
// the same XNOR wired-NOR compare as the 16T SRAM TCAM, with the storage
// gates isolated from searchline swings (a floating dynamic node directly
// on an active searchline would be disturbed by coupling on every search).
#pragma once

#include "tcam/TcamRow.h"

namespace nemtcam::tcam {

class Dtcam5TRow final : public TcamRow {
 public:
  Dtcam5TRow(int width, int array_rows, const Calibration& cal);

  TcamKind kind() const override { return TcamKind::Dtcam5T; }

  // Dynamic storage retention from the written '1' level; the cell has no
  // hysteresis window, so data is lost when the stored level can no longer
  // keep the compare transistor decisively conductive (V_th + ~100 mV).
  double simulate_retention(double v_start) const;

  // Conventional refresh: one row read-and-write-back (a write of the
  // stored word); reports per-op energy/blocked time and the array
  // refresh power (rows × E / retention).
  RefreshMetrics row_refresh_cost();

  struct StoredLevels {
    double v1;
    double v2;
  };
  static StoredLevels levels_for(Ternary t, double v_high);
};

}  // namespace nemtcam::tcam
