// Device-fault taxonomy for the NEM-relay TCAM and the deterministic
// per-cell fault draw used by Monte-Carlo campaigns.
//
// The five fault kinds cover the dominant NEM-relay failure mechanisms
// reported for poly-SiGe / TiN relay arrays plus the CMOS periphery:
//  - RelayStuckClosed: contact stiction or micro-welding — the beam never
//    releases. The cell permanently asserts one compare branch (forced
//    mismatches on one key polarity). Dead.
//  - RelayStuckOpen: fractured or fatigued beam — the contact never
//    closes and the air gap is a true open (g_off = 0, not just small).
//    The cell silently drops one compare branch (false matches). Dead.
//  - ContactDrift: cycling wear raises the contact resistance by orders
//    of magnitude; the discharge path still exists but is too slow for
//    the sense strobe. Weak.
//  - GateLeak: a damaged gate dielectric drains the stored floating-gate
//    charge well inside the refresh period; the affected branch releases
//    before the search arrives (the cell degrades toward X). Weak.
//  - MosVthOutlier: process-tail threshold shift on a periphery MOSFET —
//    delay/energy outlier, not a logic fault. Weak.
//
// Selection is a pure function of (seed, row, col): the same seed always
// yields the same fault map at any trial parallelism, which is what makes
// campaign results reproducible and bisectable.
#pragma once

#include <cstdint>
#include <vector>

#include "core/Ternary.h"

namespace nemtcam::fault {

enum class FaultKind : std::uint8_t {
  None = 0,
  RelayStuckClosed,
  RelayStuckOpen,
  ContactDrift,
  GateLeak,
  MosVthOutlier,
};

const char* fault_kind_name(FaultKind k);

// Per-cell occurrence probabilities, one per kind.
struct FaultRates {
  double stuck_closed = 0.0;
  double stuck_open = 0.0;
  double contact_drift = 0.0;
  double gate_leak = 0.0;
  double vth_outlier = 0.0;

  double total() const {
    return stuck_closed + stuck_open + contact_drift + gate_leak + vth_outlier;
  }
  // Splits one per-cell defect rate across the kinds with a fixed mix:
  // 20% stuck-closed, 20% stuck-open, 25% drift, 20% gate leak, 15% Vth.
  static FaultRates uniform(double per_cell_rate);
};

// One cell's drawn fault.
struct FaultSpec {
  int row = 0;
  int col = 0;
  FaultKind kind = FaultKind::None;
  // Which compare branch the fault hits: N1 (the stored-1 relay, drain on
  // SL̄) or N2 (the stored-0 relay, drain on SL).
  bool on_n1 = true;
  // Sign bit for signed severities (Vth outlier direction).
  bool positive = true;
};

// splitmix64 finalizer over a (seed, row, col) mix — the deterministic
// per-cell randomness source.
std::uint64_t cell_hash(std::uint64_t seed, int row, int col);

// Draws the (possibly None) fault of one cell.
FaultSpec fault_at(std::uint64_t seed, int row, int col,
                   const FaultRates& rates);

enum class CellHealth : std::uint8_t { Healthy = 0, Weak, Dead };
CellHealth health_of(FaultKind k);

// Fault map of a rows × width array: the non-None draws plus the row
// classification consumed by spare-row remapping and fault-aware refresh.
struct FaultReport {
  std::uint64_t seed = 0;
  int rows = 0;
  int width = 0;
  std::vector<FaultSpec> faults;  // only kind != None, (row, col) ascending

  // Rows containing at least one Dead cell.
  std::vector<int> dead_rows() const;
  // Rows containing Weak cells but no Dead ones.
  std::vector<int> weak_rows() const;
  // Worst cell health in a given row.
  CellHealth row_health(int row) const;
  const FaultSpec* find(int row, int col) const;
};

FaultReport draw_faults(std::uint64_t seed, int rows, int width,
                        const FaultRates& rates);

// --- Behavioral compare under a fault (array-level campaigns) -----------
//
// The 3T2N cell discharges the matchline when an asserted searchline
// reaches a closed relay: stored 1 closes N1 on SL̄ (asserted by key 0),
// stored 0 closes N2 on SL (asserted by key 1). The fault kinds perturb
// which branch is closed, or how fast it discharges.
struct CellBehavior {
  bool discharges = false;   // pulls the ML down in time for the strobe
  double delay_scale = 1.0;  // multiplier on the cell's discharge delay
};

CellBehavior faulty_cell_compare(core::Ternary stored, core::Ternary key,
                                 FaultKind kind, bool on_n1);

// Whole-row behavioral search: `match` is the faulty sense outcome at the
// strobe; `delay_scale` the worst discharge slowdown among the cells that
// did discharge (1.0 for a clean row).
struct RowOutcome {
  bool match = true;
  double delay_scale = 1.0;
};

RowOutcome faulty_row_match(const core::TernaryWord& stored,
                            const core::TernaryWord& key,
                            const FaultReport& report, int row);

}  // namespace nemtcam::fault
