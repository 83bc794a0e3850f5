// The paper's contribution: the 3-transistor / 2-NEM-relay dynamic TCAM
// cell and its row-level transactions (Fig. 1).
//
// Cell structure per column:
//   BL  ── Tw1 ── stg1 (gate of relay N1)      N1: D=SL̄, S=gs, B=GND
//   BL̄ ── Tw2 ── stg2 (gate of relay N2)      N2: D=SL,  S=gs, B=GND
//   Ts: D=ML, G=gs, S=GND
//
// Encoding: stored '1' → N1 closed, N2 open; '0' → N1 open, N2 closed;
// 'X' → both open. During a search, a mismatch routes the asserted
// searchline through the closed relay (full rail — no V_th drop) onto the
// gate of Ts, which discharges the pre-charged matchline.
#pragma once

#include <cstdint>
#include <memory>

#include "tcam/TcamRow.h"

namespace nemtcam::tcam {

class Nem3T2NRow final : public TcamRow {
 public:
  Nem3T2NRow(int width, int array_rows, const Calibration& cal);
  ~Nem3T2NRow() override;  // out-of-line: WriteTemplate is incomplete here

  TcamKind kind() const override { return TcamKind::Nem3T2N; }

  // One-shot refresh (Fig. 4): every wordline of the array is asserted and
  // every bitline driven to V_R simultaneously; closed relays stay closed
  // (V_R > V_PO), open relays stay open (V_R < V_PI). Reports whole-array
  // energy, op latency, worst-case retention, and average refresh power.
  RefreshMetrics one_shot_refresh();

  // Time from a stored-'1' gate at `v_start` until the relay releases
  // (data loss) under write-transistor subthreshold leakage.
  double simulate_retention(double v_start) const;

  // One-shot refresh with a caller-chosen refresh level (V_R ablations).
  // `v_pre_one` is the decayed level a stored '1' holds just before the
  // refresh. ok=false if any relay ends in the wrong state. The refresh
  // is a write of the stored word over itself on two WriteTemplates of the
  // cell (nem3t2n_refresh_spec in tcam/RowSpecs.h), elaborated on the first
  // refresh and again only when (v_refresh, v_pre_one) changes.
  RefreshMetrics refresh_at(double v_refresh, double v_pre_one);

  // Device-to-device variation of the relay thresholds: before every
  // refresh, every relay draws its own V_PI/V_PO as Gaussian around the
  // nominals (V_PO clamped below V_PI) from the variation seed, so a
  // refresh repeats its draws. Used by the variation ablation: OSR
  // correctness requires max(V_PO) < V_R < min(V_PI) across the whole
  // array, so threshold spread eats the refresh window.
  void set_threshold_sigma(double sigma_volts) { sigma_vth_ = sigma_volts; }
  void set_variation_seed(std::uint64_t seed) { seed_ = seed; }

 private:
  // The refresh's two legs: bitlines loaded by the whole column
  // (array_rows() cells), and the cells alone (0 rows).
  std::unique_ptr<WriteTemplate> osr_loaded_;
  std::unique_ptr<WriteTemplate> osr_cells_;
  double osr_v_refresh_ = 0.0;
  double osr_v_pre_one_ = 0.0;
  double sigma_vth_ = 0.0;
  std::uint64_t seed_ = 1;
};

}  // namespace nemtcam::tcam
