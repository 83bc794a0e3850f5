// Multi-rate lifetime co-simulation: years of behavioral traffic,
// circuit-level transients only at state-change boundaries.
//
// The rate gap this engine bridges is ~17 orders of magnitude: search
// transients resolve picoseconds, datacenter lifetimes span years. No
// transient simulator crosses that gap by stepping; the engine instead
// splits time into SEGMENTS over which the array's degradation state is
// constant, and inside a segment everything is closed-form:
//
//  - op counts come from the configured search/write rates (floor
//    arithmetic, so the count over [0,T) equals the sum over any
//    partition of [0,T) — the multi-rate and brute-force paths see
//    identical schedules),
//  - wear accrues linearly (per-row cell-cycle rates are fixed while the
//    remap and refresh state are fixed),
//  - refresh energy follows the RefreshController's schedule shape
//    (one-shot ops minus dead/retired rows' share, supplemental weak-row
//    writes on the shortened period).
//
// Segment boundaries are EVENTS, computed analytically by inverting the
// wear trajectory against the hazard thresholds (lifetime/Hazard): fault
// onsets (drift, leak, hard death), refresh-window loss (aged V_PI
// reaching the refresh level — from then on one-shot refresh actuates the
// row's beams and wear runs away), wear-decade crossings, forced faults,
// and the horizon. At each boundary the engine can replay a circuit-level
// search on the worst live row — aged via lifetime/Degradation, faulted
// via fault/FaultInjector, on the elaborate-once SearchTemplate — and the
// measured delay/energy/match recalibrate the behavioral model (a false
// match or missed match marks the row functionally dead regardless of
// what the hazard classification said).
//
// Dead rows retire onto BankedTcam spares (remap_enabled); the array dies
// at the first uncorrectable row — a hard failure with the spare pool
// exhausted (or remap off). Everything is deterministic in the seed: all
// randomness is splitmix64 over (seed, row, col), the engine is strictly
// serial, and sweeps parallelize over configurations (util/Sweep), never
// inside a run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/BankedTcam.h"
#include "arch/Endurance.h"
#include "arch/RefreshController.h"
#include "core/EnergyModel.h"
#include "fault/FaultModel.h"
#include "lifetime/Degradation.h"
#include "lifetime/Hazard.h"
#include "util/Units.h"

namespace nemtcam::tcam {
class SearchTemplate;
}

namespace nemtcam::lifetime {

struct TrafficConfig {
  double search_rate_hz = 1e6;  // array searches per second
  // Row writes per second, array aggregate, Zipf-distributed over the
  // logical rows (kZipfAlpha below).
  double write_rate_hz = 1e3;
};

// Write popularity is Zipf over logical rows (weight ∝ rank^-α under a
// seeded permutation): hot rows wear out first, which is what gives
// spare-row remap something to extend.
inline constexpr double kZipfAlpha = 0.9;
// Cell cycles per row write: fraction of the row's cells that actually
// change state (EnduranceTracker counts changed bits; behaviorally the
// expected flip fraction stands in for the exact pattern).
inline constexpr double kFlipFraction = 0.5;

// An externally scheduled fault (validation and what-if experiments):
// injected at time t, physical coordinates.
struct ForcedFault {
  double t = 0.0;
  fault::FaultSpec spec;
};

struct LifetimeConfig {
  core::TcamTech tech = core::TcamTech::Nem3T2N;
  int rows = 64;  // physical rows, spares included
  int width = 64;
  int spare_rows = 4;
  double horizon = 10.0 * units::year;
  TrafficConfig traffic;
  // Sweep axes: refresh period as a fraction of (derated) retention, and
  // a manual retention derate (temperature / margin scaling).
  double refresh_period_scale = 1.0;
  double retention_derate = 1.0;
  bool remap_enabled = true;
  std::uint64_t seed = 1;
  // Circuit-feedback budget: transients are replayed at state-change
  // boundaries until this many have run; afterwards the analytic aging
  // fallbacks carry the behavioral model. 0 disables circuit feedback
  // entirely (pure behavioral run).
  int max_circuit_checks = 12;
  // Validation mode: replay the circuit for EVERY search operation
  // instead of once per segment. O(ops) — only viable for short horizons.
  bool brute_force = false;
  std::vector<ForcedFault> forced_faults;
};

enum class EventKind {
  WeakOnset,       // first drift/leak fault in a row
  DeadOnset,       // first hard fault in a row
  WindowLost,      // aged V_PI reached V_R: refresh now actuates this row
  RowRetired,      // dead row remapped onto a spare
  FunctionalDead,  // circuit check measured a false/missed match
  DecadeCross,     // worst live wear crossed 10^-3/10^-2/10^-1/1
  Forced,          // externally scheduled fault applied
  ArrayDeath,      // uncorrectable row: spare pool exhausted or remap off
  HorizonEnd,
};

struct LifetimeEvent {
  double t = 0.0;
  EventKind kind = EventKind::HorizonEnd;
  int physical_row = -1;
  int logical_row = -1;
  double wear = 0.0;  // the row's wear fraction at the event
  std::string detail;
};

struct LifetimeResult {
  // "Never happened" onset times are the kNever sentinel (negative), so a
  // genuine onset at exactly t = 0 (forced fault, clamped window-loss
  // wear) stays distinguishable from "none".
  static constexpr double kNever = -1.0;

  // Time-to-first-uncorrectable-row; survived the horizon when !died.
  bool died = false;
  double t_death = 0.0;          // valid when died
  double t_first_dead = kNever;  // first hard row failure
  double t_first_weak = kNever;
  double t_window_lost = kNever;  // first refresh-window loss (NEM only)
  double sim_end = 0.0;        // death time or horizon
  int rows_retired = 0;
  int spares_left = 0;

  // Traffic and energy totals over [0, sim_end).
  double searches = 0.0;
  double writes = 0.0;
  double search_energy = 0.0;   // J
  double write_energy = 0.0;    // J
  double refresh_energy = 0.0;  // J
  double refresh_ops = 0.0;
  double weak_refresh_ops = 0.0;
  double search_time = 0.0;  // Σ aged per-search latency (s)

  // End-state telemetry.
  double worst_wear = 0.0;        // worst live physical row, end of run
  double delay_scale_end = 1.0;   // aged/fresh per-search latency
  double energy_scale_end = 1.0;  // aged/fresh per-search energy
  double retention_scale_end = 1.0;
  int circuit_checks = 0;
  // Refresh interference replayed once over the END state (RefreshController
  // single-resource model): duty and mean search stall.
  double refresh_duty_end = 0.0;
  double avg_search_wait_end = 0.0;

  std::vector<LifetimeEvent> events;
  fault::FaultReport report;  // physical-space fault map at sim_end

  double avg_search_latency() const {
    return searches > 0.0 ? search_time / searches : 0.0;
  }
};

class LifetimeEngine {
 public:
  explicit LifetimeEngine(LifetimeConfig cfg);
  ~LifetimeEngine();

  // Single-shot: run() consumes the engine's wear/retirement state and
  // asserts if called twice (construct a fresh engine per run).
  LifetimeResult run();

 private:
  struct RowState;

  double wear_of(int physical) const;
  double cell_rate(int physical) const;  // cell cycles per second
  double time_to_wear(int physical, double w_target) const;
  int worst_live_row() const;
  void accrue(double t0, double t1, LifetimeResult& out);
  void refresh_accrue(double t0, double t1, LifetimeResult& out);
  void deposit_wear(double dt);
  void handle_weak(double t, int physical, const std::string& detail,
                   LifetimeResult& out);
  void handle_dead(double t, int physical, EventKind kind,
                   const std::string& detail, LifetimeResult& out);
  void circuit_check(double t, LifetimeResult& out);
  void sync_template(int physical, double w, double now);
  void update_behavioral(double w);
  fault::FaultReport build_report(double now) const;
  double refresh_period() const;

  LifetimeConfig cfg_;
  core::EnergyModel costs_;
  Degradation degradation_;
  arch::BankedTcam tcam_;
  arch::EnduranceTracker tracker_;
  std::vector<RowState> state_;     // per physical row
  std::vector<double> write_rate_;  // per logical row (rows/s)
  std::vector<ForcedFault> forced_;
  double now_ = 0.0;
  bool ran_ = false;
  bool died_ = false;
  double window_loss_wear_ = 0.0;  // +inf for non-NEM / no refresh

  // Behavioral per-op values; circuit checks overwrite them with measured
  // aged absolutes, fallback laws extrapolate past the check budget.
  double per_search_energy_ = 0.0;
  double per_search_delay_ = 0.0;
  // Baseline for the scale telemetry: the first HEALTHY circuit check
  // (reference-table values until one lands — a check that measures a
  // functional failure must not anchor the "fresh" point).
  double fresh_search_energy_ = 0.0;
  double fresh_search_delay_ = 0.0;
  bool fresh_anchored_ = false;
  double base_energy_ = 0.0;   // last circuit-anchored per-search values …
  double base_delay_ = 0.0;    // … measured at checked_wear_
  double checked_wear_ = 0.0;  // wear at the last circuit check
  int checks_run_ = 0;

  // Elaborate-once measurement row (recreated when the measured physical
  // row changes — fault pins are sticky on purpose).
  std::unique_ptr<tcam::SearchTemplate> tpl_;
  int tpl_row_ = -1;
  double tpl_wear_ = 0.0;  // wear currently applied to tpl_'s devices
};

}  // namespace nemtcam::lifetime
