// Result records for circuit-level TCAM transactions.
#pragma once

#include <cstddef>
#include <string>

namespace nemtcam::tcam {

struct WriteMetrics {
  bool ok = false;          // all cells reached their target state
  double latency = 0.0;     // time from write assertion to last cell settled (s)
  double energy = 0.0;      // net energy delivered by all sources (J)
  std::string note;         // failure diagnostics
  std::size_t stamp_pattern_builds = 0;  // of the write circuit; replay ⇒ unchanged
};

// Closed-form bounds of one matchline from the sta:: engine, folded from a
// StaReport by sta_summary_from (tcam/StaBridge.h) for a caller that asks
// for them after a search; no search computes them itself. The contract
// bench_sta and the sta tests check: t_lo ≤ measured mismatch latency ≤
// t_hi, e_lo ≤ measured search energy ≤ e_hi. All zeros when invalid.
struct StaSummary {
  bool valid = false;
  double t_lo = 0.0;        // earliest credible ML crossing (s)
  double t_nom = 0.0;       // nominal single-pole crossing estimate (s)
  double t_hi = 0.0;        // latest credible crossing incl. SL settle (s)
  double v_strobe = 0.0;    // predicted ML level at the sense strobe (V)
  double margin = 0.0;      // signed sense margin at the strobe (V)
  double e_lo = 0.0;        // search-energy band (J)
  double e_hi = 0.0;
  double t_sl_settle = 0.0;   // worst driven-line settle bound (s)
  double t_retention = 0.0;   // worst storage retention bound (s; inf = safe)
  // Always 0. Read only by perfbench/driver.cpp; remove at the next
  // benchmark change.
  double analysis_seconds = 0.0;
};

struct SearchMetrics {
  bool ok = false;            // simulation finished and ML behaved sanely
  bool matched = false;       // ML stayed up (match) vs discharged (mismatch)
  double latency = 0.0;       // SL edge → ML crossing sense level (s); 0 if match
  double energy = 0.0;        // net energy delivered by all sources (J)
  double ml_final = 0.0;      // ML voltage at the end of the window (V)
  double ml_min = 0.0;        // minimum ML voltage in the window (V)
  // Solver-effort telemetry, over the whole simulated transient: a
  // search resumed at the searchline edge from its template's checkpoint
  // (ArrayFixture::run) counts the precharge prefix it did not re-solve,
  // exactly as the full run would. The work actually done shows in the
  // circuit's AssemblyCache::Stats.
  std::size_t steps = 0;           // accepted transient steps
  std::size_t steps_rejected = 0;  // LTE rejections
  std::size_t newton_iters = 0;    // total Newton iterations
  // Static-analysis telemetry: findings from the pre-simulation ERC pass
  // (errors > 0 means no transient was run and ok stays false).
  std::size_t erc_errors = 0;
  std::size_t erc_warnings = 0;
  // Cumulative stamp-pattern builds on the transaction's circuit. A
  // replayed search on an elaborated template leaves this unchanged — the
  // assertion behind the "zero reconstruction after the first search"
  // contract (see hier/Elaborate.h).
  std::size_t stamp_pattern_builds = 0;
  // Always empty. Read only by perfbench/driver.cpp; remove at the next
  // benchmark change.
  StaSummary sta;
  std::string note;

  double edp() const { return energy * latency; }
};

struct RefreshMetrics {
  bool ok = false;
  double energy_per_op = 0.0;   // J per one-shot refresh of the whole array
  double latency = 0.0;         // refresh operation duration (s)
  double retention_time = 0.0;  // worst-case data retention from refresh level (s)
  double refresh_power = 0.0;   // energy_per_op / retention_time (W)
  std::string note;
  std::size_t stamp_pattern_builds = 0;  // of both OSR legs; replay ⇒ unchanged
};

}  // namespace nemtcam::tcam
