// Static timing / energy / sense-margin analysis over an elaborated
// circuit — the quantitative successor to the ERC rule passes: same
// DeviceTopology substrate, zero Newton iterations.
//
// What it computes, per probed matchline:
//  - the precharge level v0 the ML actually reaches in t_precharge
//    (RC-limited through the precharge device — an undersized precharge
//    is visible here, not just as a failed transient),
//  - the post-edge Thevenin discharge equivalent (R_th from unit-current
//    injection over the conducting subgraph, v_inf from the switch-level
//    solve), hence a single-pole crossing time of the sense threshold
//    with calibrated lower/upper factors [k_lo, k_hi],
//  - for a non-discharging (matched) ML, the leakage droop at the strobe
//    — the finite-ON/OFF-ratio hazard that limits RRAM array height;
// plus, per driven line, Elmore first/second moments of the SL ladder
// (settle bound), a CV² search-energy band, and per state-holding
// terminal the retention bound behind the paper's one-shot-refresh
// inequality: t_ret = C·(v_store − v_hold)/I_leak ≥ safety·t_refresh.
//
// Bounds contract (validated by bench_sta across all seven row kinds and
// a 64×64 array): t_lo = k_lo·t_nom ≤ measured transient crossing ≤
// t_hi = t_edge_rise + t_sl_settle + k_hi·t_nom. The defaults are
// deliberately wide — the macro-model ignores bias-dependent channel
// current and distributed wire RC; calibrated() tightens the band from one
// transient spot-check, which is the serving-layer use: calibrate once per
// row kind, then evaluate delay/energy at full speed.
//
// Every template build runs this pass once, as a gate: its margin rules
// (Rules.h) join the build's ERC checker, with no switch to turn them
// off. A search itself computes no bounds; bench_sta and the sta tests
// run analyze() over the searched circuit where they check the bounds
// (tcam/StaBridge.h folds the report per matchline).
#pragma once

#include <string>
#include <vector>

#include "sta/RcGraph.h"

namespace nemtcam::sta {

struct StaOptions {
  double vdd = 1.0;          // rail (V)
  double v_sense = 0.5;      // ML comparator threshold (V)
  double t_precharge = 0.5e-9;  // precharge phase length (s)
  double t_strobe = 1.0e-9;  // SL edge → sense strobe (s)
  double t_window = 2.5e-9;  // evaluation window after the edge (s)
  // Delay-band calibration factors: t_lo = k_lo·t_nom, t_hi adds the edge
  // ramp and the SL settle bound and scales by k_hi.
  double k_lo = 0.2;
  double k_hi = 4.0;
  // Refresh period the sta.refresh-window rule (Rules.h) holds retention
  // against; < 0 disables that inequality.
  double refresh_period = -1.0;  // s
};

// Tightened copy of `base` after one transient spot-check: the measured/
// nominal ratio re-centers the delay band, narrowed to ±`band`.
StaOptions calibrated(const StaOptions& base, double t_nom, double t_measured,
                      double band = 1.6);

struct MlReport {
  std::string node;
  bool valid = false;
  double v0 = 0.0;      // precharge level at the search edge, incl. boost (V)
  double v_boost = 0.0; // aggressor-coupling kick at the search edge (V)
  double v_inf = 0.0;   // settled post-edge level over strong paths (V)
  double r_th = 0.0;    // discharge Thevenin resistance (Ω); inf if none
  double c_node = 0.0;  // lumped C at the ML alone (F)
  double c_swing = 0.0; // C that must move with the ML (F)
  double tau = 0.0;     // R_th·c_swing (s)
  bool discharges = false;    // nominal level crosses the sense threshold
  double t_cross_lo = 0.0;    // s; +inf when the ML never crosses
  double t_cross_nom = 0.0;
  double t_cross_hi = 0.0;
  double v_strobe_nom = 0.0;  // predicted ML level at the strobe (V)
  double droop_rate = 0.0;    // leak droop when not discharging (V/s)
  double sense_margin = 0.0;  // signed distance from v_sense at strobe (V)
};

struct LineReport {
  std::string driver;   // source device name
  std::string node;     // driven node name
  double r_drive = 0.0;
  double c_total = 0.0;
  double m1 = 0.0;      // worst-sink Elmore first moment (s)
  double m2 = 0.0;      // second moment (s²)
  double t_settle_hi = 0.0;  // ln(10)·m1 90 % settle bound (s)
  int n_nodes = 0;
};

struct RetentionReport {
  std::string device;
  std::string node;
  double c = 0.0;         // storage-node capacitance (F)
  double v_start = 0.0;   // stored level (V)
  double v_hold = 0.0;    // loss threshold (V)
  double i_leak = 0.0;    // worst-case leak at the stored level (A)
  double t_retention = 0.0;  // linear decay bound (s); +inf when leak-free
};

struct StaReport {
  std::vector<MlReport> mls;
  std::vector<LineReport> lines;
  std::vector<RetentionReport> retention;
  double t_sl_settle_max = 0.0;  // worst driven-line settle bound (s)
  double e_search_lo = 0.0;      // J
  double e_search_nom = 0.0;
  double e_search_hi = 0.0;
  double p_static = 0.0;         // W at the settled post-edge levels
  int n_nodes = 0;
  int n_edges = 0;

  // Worst (smallest) retention bound, or nullptr when none tracked.
  const RetentionReport* worst_retention() const;
  // Human-readable multi-line summary (nemtcam_lint --sta).
  std::string to_string() const;
};

// Runs the full analysis. `ml_probes` are node names to treat as
// matchlines (empty → every node named "ml*" at top level is probed —
// the lint-on-a-deck heuristic). The circuit is not modified beyond
// name→id lookups.
StaReport analyze(spice::Circuit& circuit,
                  const std::vector<std::string>& ml_probes,
                  const StaOptions& opt = {});

}  // namespace nemtcam::sta
