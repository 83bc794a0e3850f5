// Refresh-policy study: how much do refresh operations interfere with the
// normal search stream?
//
// This is the architectural argument of the paper's introduction: a
// conventional dynamic TCAM refreshes row by row (N blocking operations
// per retention period, each a read + write-back), stalling search
// traffic; one-shot refresh costs a single short operation per period.
// The controller replays a Poisson or periodic search-request trace
// against either policy and reports throughput, stall statistics, and
// refresh energy.
#pragma once

#include <cstdint>
#include <vector>

#include "core/EnergyModel.h"

namespace nemtcam::arch {

enum class RefreshPolicy {
  None,       // static technology (SRAM) or decay ignored
  RowByRow,   // N row operations spread over each retention period
  OneShot,    // single whole-array operation per retention period
};

const char* policy_name(RefreshPolicy p);

// Fraction of the rated retention time a weak row can actually hold
// charge (gate-leak faults drain the floating gate early): weak rows are
// refreshed every kWeakRetentionScale·T.
inline constexpr double kWeakRetentionScale = 0.25;

// Fault-aware scheduling fed from a fault campaign's report: leaky
// (Weak) rows lose charge faster than the array's rated retention, so
// they get supplemental row refreshes on a shortened period; Dead rows
// hold no data worth refreshing and are excluded from the schedule (and
// from the one-shot op's per-row energy share). Retired rows (remapped
// onto spares by BankedTcam, or unused spares) carry no live data either
// and are excluded the same way — see BankedTcam::refresh_awareness.
struct FaultAwareness {
  std::vector<int> weak_rows;     // refreshed every kWeakRetentionScale·T
  std::vector<int> dead_rows;     // excluded from refresh entirely
  std::vector<int> retired_rows;  // remapped away / unused spares: excluded

  // Cleaned copy with the scheduling invariants enforced: each list is
  // sorted and deduplicated, out-of-range indices are dropped, and
  // precedence is applied — a row listed both weak and dead is dead (one
  // stuck cell outranks any number of leaky ones), and a retired row
  // drops out of the weak *and* dead schedules (its data lives on a spare
  // now; supplemental refreshes of the abandoned physical row would be
  // pure waste). simulate_refresh_interference normalizes internally, so
  // callers may pass raw campaign lists.
  FaultAwareness normalized(int rows) const;
};

struct RefreshSimConfig {
  core::TcamTech tech = core::TcamTech::Nem3T2N;
  RefreshPolicy policy = RefreshPolicy::OneShot;
  int rows = 64;
  int width = 64;
  double sim_time = 200e-6;         // total simulated wall-clock
  double search_rate_hz = 100e6;    // offered search load (mean rate)
  bool poisson_arrivals = true;     // false = perfectly periodic
  std::uint64_t seed = 1;
  // Row-by-row refreshes are spread uniformly over the retention period
  // (distributed refresh), as DRAM controllers do.
  FaultAwareness faults;            // empty lists = healthy array
  // Array-wide retention derating (aging: gate leakage grows with wear,
  // shrinking how long every cell holds charge). Scales the technology's
  // rated retention time before the refresh period is derived from it.
  double retention_scale = 1.0;
  // Policy knob: refresh period as a fraction of the (derated) retention
  // time. <1 refreshes early (guard band), >1 overdrives retention — a
  // lifetime-sweep axis, not a recommended operating point.
  double refresh_period_scale = 1.0;
};

struct RefreshSimResult {
  std::uint64_t searches_issued = 0;
  std::uint64_t searches_served = 0;
  std::uint64_t refresh_ops = 0;       // row ops or one-shot ops
  std::uint64_t weak_refresh_ops = 0;  // supplemental weak-row refreshes
  int rows_excluded = 0;               // dead rows dropped from the schedule
  double refresh_energy = 0.0;         // J
  double refresh_busy_time = 0.0;      // s the array was blocked refreshing
  double total_search_wait = 0.0;      // s of queueing delay due to refresh
  double max_search_wait = 0.0;        // s
  double avg_search_wait() const {
    return searches_served ? total_search_wait / searches_served : 0.0;
  }
  // Fraction of array time spent refreshing.
  double refresh_duty(double sim_time) const {
    return refresh_busy_time / sim_time;
  }
};

RefreshSimResult simulate_refresh_interference(const RefreshSimConfig& cfg);

}  // namespace nemtcam::arch
