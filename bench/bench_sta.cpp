// STA bracketing validation (static-analysis PR — no paper figure).
//
// Proves the closed-form STA bounds (src/sta/Sta.h) honor their
// contract against the transient reference, at full scale:
//
//  - every row kind (all seven designs) at width 64, three search cases
//    each — match, one-bit mismatch, max mismatch: for every case whose
//    matchline discharges, the measured transient crossing obeys
//    t_lo <= t_measured <= t_hi, and the measured search energy sits in
//    [e_lo, e_hi]; matched cases must report a positive static sense
//    margin;
//  - a 64x64 ArrayTemplate with alternating matched/one-bit-mismatch
//    rows: per-row brackets for every discharging row plus the aggregate
//    band spanning the earliest/latest measured crossing;
//  - the calibrated() path: the delay band re-centered from the width-64
//    one-bit spot check must bracket an independent width-32 one-bit
//    search of the same kind with a strictly narrower band (calibration
//    transfers across loading, not across discharge topology — a
//    many-stack mismatch has a different measured/nominal ratio);
//  - speed: the static pass must be at least 100x faster than the
//    transients it replaces — summed over the row cases, and separately
//    for the array leg. Each case is one search, timed whole; its
//    transient time is that wall time less the attached STA pass (a
//    case's first search includes the template build, as a served search
//    would). The row sweep and the array leg run three times, each on
//    fresh templates, and the gate reads the median speedups.
//
// Any violated bracket (in any run), non-positive matched margin, failed
// calibrated re-check, or median speedup below the floor makes the
// process exit 1 — this is the machine gate tools/ci.sh runs. Results go
// to BENCH_sta.json in the CWD (repo convention: benches write
// BENCH_*.json where they run), every run's speedups included. --smoke
// shrinks to width 16 / an 8x8 array and relaxes the speedup floor to 5x
// (tiny transients amortize badly), same output contract.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "BenchCommon.h"
#include "sta/Sta.h"
#include "tcam/RowSpecs.h"
#include "tcam/ArrayTemplate.h"
#include "tcam/SearchTemplate.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;
using Clock = std::chrono::steady_clock;

bool g_smoke = false;
constexpr int kRuns = 3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string fmt(const char* f, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

// Stored word cycling 1,0,X — exercises both SL polarities and the
// don't-care encoding in every design.
core::TernaryWord stored_word(int width) {
  core::TernaryWord w(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    const int m = i % 3;
    w[static_cast<std::size_t>(i)] = m == 0   ? core::Ternary::One
                                     : m == 1 ? core::Ternary::Zero
                                              : core::Ternary::X;
  }
  return w;
}

// A key the stored word matches: stored X positions get an arbitrary
// definite value (X matches anything).
core::TernaryWord matching_key(const core::TernaryWord& stored) {
  core::TernaryWord key = stored;
  for (std::size_t i = 0; i < key.size(); ++i)
    if (key[i] == core::Ternary::X) key[i] = core::Ternary::One;
  return key;
}

core::TernaryWord flip_bit(core::TernaryWord key, std::size_t i) {
  key[i] = key[i] == core::Ternary::One ? core::Ternary::Zero
                                        : core::Ternary::One;
  return key;
}

// Every stored-definite bit mismatched — the fastest possible discharge.
core::TernaryWord max_mismatch_key(const core::TernaryWord& stored,
                                   const core::TernaryWord& match) {
  core::TernaryWord key = match;
  for (std::size_t i = 0; i < stored.size(); ++i)
    if (stored[i] != core::Ternary::X) key = flip_bit(std::move(key), i);
  return key;
}

struct CaseResult {
  std::string kind;
  std::string label;
  bool matched = false;
  double measured = 0.0;  // transient ML crossing, s (0 when no crossing)
  double energy = 0.0;    // measured search energy, J
  tcam::StaSummary sta;
  double t_transient = 0.0;  // search wall seconds less the STA pass
  bool ok = true;
  std::string why;
};

// One search, timed whole; the STA pass it attaches is what the static
// analysis costs, the rest is the transient (and build) it replaces.
CaseResult run_case(tcam::SearchTemplate& tpl, const char* kind,
                    const char* label, const core::TernaryWord& key,
                    const core::TernaryWord& stored) {
  CaseResult r;
  r.kind = kind;
  r.label = label;

  const auto t0 = Clock::now();
  const tcam::SearchMetrics m = tpl.search(key, stored, tpl.default_strobe());
  r.t_transient = seconds_since(t0) - m.sta.analysis_seconds;
  r.matched = m.matched;
  r.measured = m.latency;
  r.energy = m.energy;
  r.sta = m.sta;
  if (!m.ok || !m.sta.valid) {
    r.ok = false;
    r.why = "search or STA did not complete";
    return r;
  }

  if (!m.matched && m.latency > 0.0) {
    if (!(m.sta.t_lo <= m.latency && m.latency <= m.sta.t_hi)) {
      r.ok = false;
      r.why = "delay bracket violated";
    }
  } else if (m.matched && m.sta.margin <= 0.0) {
    r.ok = false;
    r.why = "matched row with non-positive static margin";
  }
  if (r.ok && !(m.sta.e_lo <= m.energy && m.energy <= m.sta.e_hi)) {
    r.ok = false;
    r.why = "energy bracket violated";
  }
  return r;
}

struct ArrayLeg {
  int rows = 0, width = 0;
  double t_transient = 0.0;
  double t_sta = 0.0;
  int discharging = 0;
  bool brackets_ok = true;
  bool aggregate_ok = true;
  double agg_t_lo = 0.0, agg_t_hi = 0.0;
  double meas_min = 0.0, meas_max = 0.0;
};

ArrayLeg run_array(int rows, int width) {
  ArrayLeg leg;
  leg.rows = rows;
  leg.width = width;

  tcam::ArrayTemplate arr(tcam::nem3t2n_search_spec(tcam::Calibration{}), rows,
                          width);
  const core::TernaryWord stored = stored_word(width);
  const core::TernaryWord match = matching_key(stored);
  for (int r = 0; r < rows; ++r)
    arr.store(r, r % 2 == 0 ? stored : flip_bit(stored, 0));

  const auto t0 = Clock::now();
  const tcam::ArraySearchMetrics m = arr.search(match);
  leg.t_sta = m.sta.analysis_seconds;
  leg.t_transient = seconds_since(t0) - leg.t_sta;
  if (!m.ok || !m.sta.valid) {
    leg.brackets_ok = leg.aggregate_ok = false;
    return leg;
  }
  double lo = 0.0, hi = 0.0;
  for (int r = 0; r < rows; ++r) {
    const tcam::ArrayRowResult& rr = m.rows[static_cast<std::size_t>(r)];
    if (rr.matched || rr.latency <= 0.0) continue;
    ++leg.discharging;
    if (!(rr.sta.valid && rr.sta.t_lo <= rr.latency &&
          rr.latency <= rr.sta.t_hi))
      leg.brackets_ok = false;
    lo = leg.discharging == 1 ? rr.latency : std::min(lo, rr.latency);
    hi = std::max(hi, rr.latency);
  }
  leg.meas_min = lo;
  leg.meas_max = hi;
  leg.agg_t_lo = m.sta.t_lo;
  leg.agg_t_hi = m.sta.t_hi;
  // The aggregate band must span every measured crossing.
  leg.aggregate_ok =
      leg.discharging > 0 && m.sta.t_lo <= lo && hi <= m.sta.t_hi;
  return leg;
}

double case_speedup(const CaseResult& c) {
  return c.sta.analysis_seconds > 0.0 ? c.t_transient / c.sta.analysis_seconds
                                      : 0.0;
}

double leg_speedup(const ArrayLeg& leg) {
  return leg.t_sta > 0.0 ? leg.t_transient / leg.t_sta : 0.0;
}

// One pass of the row cases over every kind, on fresh templates.
struct RowSweep {
  std::vector<CaseResult> cases;
  int calibrated_checked = 0, calibrated_ok = 0;
  double speedup = 0.0;  // summed transient over summed STA seconds
};

RowSweep run_rows(int width) {
  const core::TernaryWord stored = stored_word(width);
  const core::TernaryWord match = matching_key(stored);
  const core::TernaryWord mm1 = flip_bit(match, 0);
  const core::TernaryWord mmN = max_mismatch_key(stored, match);

  const int half_width = width / 2;
  const core::TernaryWord stored_h = stored_word(half_width);
  const core::TernaryWord match_h = matching_key(stored_h);
  const core::TernaryWord mm1_h = flip_bit(match_h, 0);

  RowSweep sweep;
  double sum_transient = 0.0, sum_sta = 0.0;
  for (const tcam::TcamKind kind : seven_kinds()) {
    const char* name = tcam::kind_name(kind);
    tcam::SearchTemplate tpl(tcam::search_spec_for(kind, tcam::Calibration{}),
                             width, kRows);
    const CaseResult rm = run_case(tpl, name, "match", match, stored);
    const CaseResult r1 = run_case(tpl, name, "mismatch-1", mm1, stored);
    const CaseResult rn = run_case(tpl, name, "mismatch-max", mmN, stored);

    // Calibrated band: re-center [k_lo, k_hi] from the width-W one-bit
    // spot check, then require a width-W/2 one-bit search (same discharge
    // topology — one conducting stack — different C, wire load, strobe) to
    // bracket inside a band strictly narrower than the uncalibrated one.
    tcam::SearchTemplate tpl_h(tcam::search_spec_for(kind, tcam::Calibration{}),
                               half_width, kRows);
    CaseResult rcal =
        run_case(tpl_h, name, "mismatch-1(calibrated)", mm1_h, stored_h);
    if (r1.ok && rcal.ok && !r1.matched && !rcal.matched &&
        r1.measured > 0.0 && rcal.measured > 0.0 && r1.sta.t_nom > 0.0) {
      ++sweep.calibrated_checked;
      const sta::StaOptions cal_opt =
          sta::calibrated(sta::StaOptions{}, r1.sta.t_nom, r1.measured);
      const double def_width = rcal.sta.t_hi - rcal.sta.t_lo;
      rcal.sta.t_lo = cal_opt.k_lo * rcal.sta.t_nom;
      rcal.sta.t_hi = rcal.sta.t_sl_settle + cal_opt.k_hi * rcal.sta.t_nom;
      rcal.ok = rcal.sta.t_lo <= rcal.measured &&
                rcal.measured <= rcal.sta.t_hi &&
                rcal.sta.t_hi - rcal.sta.t_lo < def_width;
      if (!rcal.ok) rcal.why = "calibrated band failed the cross-check";
      sweep.calibrated_ok += rcal.ok ? 1 : 0;
    }

    for (const CaseResult& c : {rm, r1, rn, rcal}) {
      sum_transient += c.t_transient;
      sum_sta += c.sta.analysis_seconds;
      sweep.cases.push_back(c);
    }
  }
  sweep.speedup = sum_sta > 0.0 ? sum_transient / sum_sta : 0.0;
  return sweep;
}

void write_json(const std::vector<CaseResult>& cases, const ArrayLeg& leg,
                int calibrated_checked, int calibrated_ok,
                const std::vector<double>& row_speedups,
                const std::vector<double>& array_speedups, double row_speedup,
                double array_speedup, double speedup_floor, bool ok) {
  FILE* f = std::fopen("BENCH_sta.json", "w");
  if (f == nullptr) return;
  const auto list = [f](const char* key, const std::vector<double>& v) {
    std::fprintf(f, "  \"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); ++i)
      std::fprintf(f, "%s%.3g", i ? ", " : "", v[i]);
    std::fprintf(f, "],\n");
  };
  std::fprintf(f, "{\n  \"bench\": \"sta\",\n  \"smoke\": %s,\n  \"ok\": %s,\n",
               g_smoke ? "true" : "false", ok ? "true" : "false");
  std::fprintf(f, "  \"speedup_floor\": %g,\n", speedup_floor);
  std::fprintf(f, "  \"row_speedup\": %.3g,\n", row_speedup);
  std::fprintf(f, "  \"array_speedup\": %.3g,\n", array_speedup);
  list("row_speedups", row_speedups);
  list("array_speedups", array_speedups);
  std::fprintf(f, "  \"calibrated_checked\": %d,\n", calibrated_checked);
  std::fprintf(f, "  \"calibrated_ok\": %d,\n", calibrated_ok);
  std::fprintf(f, "  \"cases\": [\n");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    std::fprintf(
        f,
        "    {\"kind\": \"%s\", \"case\": \"%s\", \"ok\": %s, "
        "\"matched\": %s, \"t_meas\": %.6g, \"t_lo\": %.6g, \"t_nom\": %.6g, "
        "\"t_hi\": %.6g, \"margin\": %.4g, \"e_meas\": %.6g, \"e_lo\": %.6g, "
        "\"e_hi\": %.6g, \"t_transient\": %.4g, \"t_sta\": %.4g}%s\n",
        c.kind.c_str(), c.label.c_str(), c.ok ? "true" : "false",
        c.matched ? "true" : "false", c.measured, c.sta.t_lo, c.sta.t_nom,
        c.sta.t_hi, c.sta.margin, c.energy, c.sta.e_lo, c.sta.e_hi,
        c.t_transient, c.sta.analysis_seconds,
        i + 1 < cases.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(
      f,
      "  \"array\": {\"rows\": %d, \"width\": %d, \"discharging\": %d, "
      "\"brackets_ok\": %s, \"aggregate_ok\": %s, \"agg_t_lo\": %.6g, "
      "\"agg_t_hi\": %.6g, \"meas_min\": %.6g, \"meas_max\": %.6g, "
      "\"t_transient\": %.4g, \"t_sta\": %.4g}\n",
      leg.rows, leg.width, leg.discharging,
      leg.brackets_ok ? "true" : "false", leg.aggregate_ok ? "true" : "false",
      leg.agg_t_lo, leg.agg_t_hi, leg.meas_min, leg.meas_max, leg.t_transient,
      leg.t_sta);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote BENCH_sta.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;

  const int width = g_smoke ? 16 : kWidth;
  const int array_rows = g_smoke ? 8 : kRows;
  const int array_width = g_smoke ? 8 : kWidth;
  const double speedup_floor = g_smoke ? 5.0 : 100.0;

  std::vector<RowSweep> sweeps;
  std::vector<ArrayLeg> legs;
  for (int run = 0; run < kRuns; ++run) {
    sweeps.push_back(run_rows(width));
    legs.push_back(run_array(array_rows, array_width));
  }

  // The transients are deterministic, so every run reads the same
  // brackets: the table shows the first run's, a case fails when it fails
  // in any run, and its speedup is the median over the runs.
  bool ok = true;
  std::vector<CaseResult> cases = sweeps.front().cases;
  util::Table table({"kind", "case", "t_meas(ps)", "t_lo(ps)", "t_hi(ps)",
                     "margin(V)", "speedup", "verdict"});
  for (std::size_t i = 0; i < cases.size(); ++i) {
    CaseResult& c = cases[i];
    std::vector<double> speedups;
    for (const RowSweep& sweep : sweeps) {
      const CaseResult& rerun = sweep.cases[i];
      speedups.push_back(case_speedup(rerun));
      if (c.ok && !rerun.ok) {
        c.ok = false;
        c.why = rerun.why;
      }
    }
    ok = ok && c.ok;
    table.add_row({c.kind, c.label, fmt("%.1f", c.measured * 1e12),
                   fmt("%.1f", c.sta.t_lo * 1e12),
                   fmt("%.1f", c.sta.t_hi * 1e12), fmt("%+.3f", c.sta.margin),
                   fmt("%.0fx", median(speedups)),
                   c.ok ? "ok" : "FAIL " + c.why});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::vector<double> row_speedups, array_speedups;
  for (int run = 0; run < kRuns; ++run) {
    const RowSweep& sweep = sweeps[static_cast<std::size_t>(run)];
    const ArrayLeg& leg = legs[static_cast<std::size_t>(run)];
    ok = ok && sweep.calibrated_checked > 0 &&
         sweep.calibrated_ok == sweep.calibrated_checked;
    ok = ok && leg.brackets_ok && leg.aggregate_ok;
    row_speedups.push_back(sweep.speedup);
    array_speedups.push_back(leg_speedup(leg));
    std::printf(
        "run %d: rows %.0fx (summed); array %dx%d: %d discharging rows, "
        "per-row brackets %s, aggregate [%.1f, %.1f] ps spans measured "
        "[%.1f, %.1f] ps: %s, speedup %.0fx\n",
        run + 1, sweep.speedup, leg.rows, leg.width, leg.discharging,
        leg.brackets_ok ? "ok" : "FAIL", leg.agg_t_lo * 1e12,
        leg.agg_t_hi * 1e12, leg.meas_min * 1e12, leg.meas_max * 1e12,
        leg.aggregate_ok ? "ok" : "FAIL", array_speedups.back());
  }
  const double row_speedup = median(row_speedups);
  const double array_speedup = median(array_speedups);
  std::printf(
      "speedup (median of %d runs): rows %.0fx (summed), array %.0fx, floor "
      "%.0fx\n",
      kRuns, row_speedup, array_speedup, speedup_floor);
  if (row_speedup < speedup_floor || array_speedup < speedup_floor) {
    ok = false;
    std::printf("FAIL: speedup below the floor\n");
  }
  write_json(cases, legs.front(), sweeps.front().calibrated_checked,
             sweeps.front().calibrated_ok, row_speedups, array_speedups,
             row_speedup, array_speedup, speedup_floor, ok);
  std::printf("bench_sta: %s\n", ok ? "all gates passed" : "GATE FAILED");
  return ok ? 0 : 1;
}
