// Datacenter-lifetime sweep (robustness PR — no paper figure).
//
// For every technology × write intensity × refresh-schedule point, a
// multi-rate lifetime co-simulation (lifetime/LifetimeEngine) runs years
// of Zipf-skewed search/write/refresh traffic behaviorally, replays
// circuit-level transients only at state-change boundaries, and records
// when the array dies: the first row that cannot be remapped onto a
// healthy spare. Reported per point:
//  - time-to-first-uncorrectable-row (censored at the horizon when the
//    array survives),
//  - first hard row failure and — NEM only — the refresh-window-loss
//    time (aged V_PI reaching V_R, after which one-shot refresh actuates
//    the row and wear runs away),
//  - refresh-energy totals over the lived interval, spare-pool state, and
//    the aged delay/energy scale at end of life.
// NEM additionally runs a remap-off arm per point; the per-point
// "extension" column is lifetime(remap on)/lifetime(remap off), the
// quantity the spare-row machinery is buying.
//
// Every point runs under util::run_sweep_guarded (points parallelize,
// each run is strictly serial and seeded by its sweep coordinates, so
// results are bit-identical at any thread count). Results go to
// BENCH_lifetime.json; --smoke switches to a CI-sized subset (small
// array, short horizon, NEM-focused) with the same output contract.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "BenchCommon.h"
#include "core/EnergyModel.h"
#include "lifetime/LifetimeEngine.h"
#include "util/Sweep.h"
#include "util/Table.h"
#include "util/Units.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;

bool g_smoke = false;

struct SweepAxes {
  int rows = 64;
  int width = 64;
  int spare_rows = 4;
  double horizon = 10.0 * units::year;
  int max_circuit_checks = 4;
  std::vector<core::TcamTech> techs = {
      core::TcamTech::Sram16T, core::TcamTech::Nem3T2N,
      core::TcamTech::Rram2T2R, core::TcamTech::Fefet2F};
  std::vector<double> write_rates = {1e3, 1e4, 1e5};  // row writes / s
  // Paired refresh-schedule variants: (refresh_period_scale,
  // retention_derate). Scale shortens the schedule directly; derate
  // models a hot/margined part whose retention itself shrank.
  std::vector<std::pair<double, double>> refresh = {
      {1.0, 1.0}, {0.5, 1.0}, {1.0, 0.5}};
};

SweepAxes axes() {
  SweepAxes a;
  if (g_smoke) {
    a.rows = 16;
    a.width = 16;
    a.spare_rows = 2;
    a.horizon = 2.0 * units::year;
    a.max_circuit_checks = 2;
    a.techs = {core::TcamTech::Nem3T2N, core::TcamTech::Rram2T2R};
    a.write_rates = {1e4, 1e5};
    a.refresh = {{1.0, 1.0}};
  }
  return a;
}

struct PointKey {
  core::TcamTech tech = core::TcamTech::Nem3T2N;
  double write_rate = 0.0;
  double refresh_period_scale = 1.0;
  double retention_derate = 1.0;
  bool remap = true;
  // Seed index shared by the remap-on and remap-off arms of the same
  // (tech, write rate, refresh) point: both arms must draw identical
  // hazard fates or the "extension" ratio (and its acceptance gate)
  // compares unpaired random universes.
  std::size_t pair = 0;
};

struct PointResult {
  PointKey key;
  bool ok = false;
  std::string error;
  lifetime::LifetimeResult res;
};

// Lifetime censored at the horizon: the comparable "how long did it
// live" number whether or not the array died.
double lived(const lifetime::LifetimeResult& r, double horizon) {
  return r.died ? r.t_death : horizon;
}

lifetime::LifetimeConfig make_config(const SweepAxes& a, const PointKey& k,
                                     std::uint64_t seed) {
  lifetime::LifetimeConfig cfg;
  cfg.tech = k.tech;
  cfg.rows = a.rows;
  cfg.width = a.width;
  cfg.spare_rows = a.spare_rows;
  cfg.horizon = a.horizon;
  cfg.traffic.write_rate_hz = k.write_rate;
  cfg.refresh_period_scale = k.refresh_period_scale;
  cfg.retention_derate = k.retention_derate;
  cfg.remap_enabled = k.remap;
  cfg.max_circuit_checks = a.max_circuit_checks;
  cfg.seed = seed;
  return cfg;
}

std::vector<PointKey> make_points(const SweepAxes& a) {
  std::vector<PointKey> keys;
  std::size_t pair = 0;
  for (const core::TcamTech tech : a.techs)
    for (const double wr : a.write_rates)
      for (const auto& [rps, derate] : a.refresh) {
        keys.push_back({tech, wr, rps, derate, true, pair});
        if (tech == core::TcamTech::Nem3T2N)
          keys.push_back({tech, wr, rps, derate, false, pair});
        ++pair;
      }
  return keys;
}

std::vector<PointResult> g_results;
std::size_t g_failed = 0;

void BM_LifetimeSweep(benchmark::State& state) {
  const SweepAxes a = axes();
  const std::vector<PointKey> keys = make_points(a);
  for (auto _ : state) {
    g_results.clear();
    g_failed = 0;
    util::SweepOptions sweep;
    sweep.base_seed = 0x11fe71feu;
    const auto items = util::run_sweep_guarded<lifetime::LifetimeResult>(
        keys.size(),
        [&a, &keys, &sweep](std::size_t i, std::uint64_t /*seed*/) {
          // Seed by the pair index, not the sweep index: the remap-off
          // arm reuses its on-arm's seed so the comparison is paired.
          const std::uint64_t seed =
              util::sweep_trial_seed(sweep.base_seed, keys[i].pair);
          lifetime::LifetimeEngine engine(make_config(a, keys[i], seed));
          return engine.run();
        },
        sweep);
    for (std::size_t i = 0; i < items.size(); ++i) {
      PointResult pr;
      pr.key = keys[i];
      pr.ok = items[i].ok;
      pr.error = items[i].error;
      if (items[i].ok)
        pr.res = items[i].value;
      else
        ++g_failed;
      g_results.push_back(std::move(pr));
    }
    benchmark::DoNotOptimize(g_results.size());
  }
  state.counters["points"] = static_cast<double>(keys.size());
  state.counters["failed"] = static_cast<double>(g_failed);
}

BENCHMARK(BM_LifetimeSweep)->Iterations(1)->Unit(benchmark::kMillisecond);

const PointResult* find_point(core::TcamTech tech, double wr, double rps,
                              double derate, bool remap) {
  for (const auto& pr : g_results) {
    const PointKey& k = pr.key;
    if (k.tech == tech && k.write_rate == wr &&
        k.refresh_period_scale == rps && k.retention_derate == derate &&
        k.remap == remap)
      return &pr;
  }
  return nullptr;
}

std::string years_or_alive(const lifetime::LifetimeResult& r,
                           double horizon) {
  if (!r.died)
    return "> " + util::si_format(horizon / units::year, "", 3);
  return util::si_format(r.t_death / units::year, "", 3);
}

// Onset time in years, or -1 when the onset never happened (the
// LifetimeResult::kNever sentinel is negative; t = 0 is a real onset).
double years_or_never(double t) { return t >= 0.0 ? t / units::year : -1.0; }

void print_tables(const SweepAxes& a) {
  for (const core::TcamTech tech : a.techs) {
    std::printf("\n%s — %dx%d + %d spares, horizon %.0f yr\n",
                core::tech_name(tech), a.rows - a.spare_rows, a.width,
                a.spare_rows, a.horizon / units::year);
    util::Table t({"writes/s", "rps", "derate", "life (yr)", "1st dead",
                   "win lost", "retired", "E_refresh", "delay x",
                   "extension"});
    for (const double wr : a.write_rates)
      for (const auto& [rps, derate] : a.refresh) {
        const PointResult* on = find_point(tech, wr, rps, derate, true);
        if (on == nullptr || !on->ok) continue;
        const lifetime::LifetimeResult& r = on->res;
        std::string ext = "-";
        if (const PointResult* off = find_point(tech, wr, rps, derate, false);
            off != nullptr && off->ok && off->res.died) {
          ext = util::si_format(
                    lived(r, a.horizon) / lived(off->res, a.horizon), "x",
                    3) +
                (r.died ? "" : " (cens)");
        }
        t.add_row({util::si_format(wr, "", 3), util::si_format(rps, "", 2),
                   util::si_format(derate, "", 2), years_or_alive(r, a.horizon),
                   r.t_first_dead >= 0.0
                       ? util::si_format(r.t_first_dead / units::year, "", 3)
                       : "-",
                   r.t_window_lost >= 0.0
                       ? util::si_format(r.t_window_lost / units::year, "", 3)
                       : "-",
                   std::to_string(r.rows_retired),
                   util::si_format(r.refresh_energy, "J", 3),
                   util::si_format(r.delay_scale_end, "", 3), ext});
      }
    std::printf("%s", t.to_string().c_str());
  }
}

void write_json(const SweepAxes& a) {
  FILE* f = std::fopen("BENCH_lifetime.json", "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\n"
               "  \"smoke\": %s,\n"
               "  \"array\": {\"rows\": %d, \"width\": %d, \"spare_rows\": "
               "%d},\n"
               "  \"horizon_years\": %.6g,\n"
               "  \"traffic\": {\"search_rate_hz\": %.6g, \"zipf_alpha\": "
               "%.6g, \"flip_fraction\": %.6g},\n"
               "  \"points_failed\": %zu,\n"
               "  \"sweep\": {\n",
               g_smoke ? "true" : "false", a.rows, a.width, a.spare_rows,
               a.horizon / units::year,
               lifetime::TrafficConfig{}.search_rate_hz, lifetime::kZipfAlpha,
               lifetime::kFlipFraction, g_failed);
  for (std::size_t ti = 0; ti < a.techs.size(); ++ti) {
    const core::TcamTech tech = a.techs[ti];
    std::fprintf(f, "    \"%s\": [\n", core::tech_name(tech));
    bool first = true;
    for (const auto& pr : g_results) {
      if (pr.key.tech != tech || !pr.ok) continue;
      const lifetime::LifetimeResult& r = pr.res;
      std::fprintf(
          f,
          "%s      {\"write_rate_hz\": %.6e, \"refresh_period_scale\": "
          "%.3g, \"retention_derate\": %.3g, \"remap\": %s,\n"
          "       \"died\": %s, \"lifetime_years\": %.6e, "
          "\"censored\": %s,\n"
          "       \"t_first_dead_years\": %.6e, \"t_first_weak_years\": "
          "%.6e, \"t_window_lost_years\": %.6e,\n"
          "       \"rows_retired\": %d, \"spares_left\": %d, "
          "\"circuit_checks\": %d, \"events\": %zu,\n"
          "       \"searches\": %.6e, \"writes\": %.6e,\n"
          "       \"search_energy_j\": %.6e, \"write_energy_j\": %.6e, "
          "\"refresh_energy_j\": %.6e,\n"
          "       \"refresh_ops\": %.6e, \"weak_refresh_ops\": %.6e,\n"
          "       \"avg_search_latency_s\": %.6e, \"delay_scale_end\": "
          "%.6g, \"energy_scale_end\": %.6g,\n"
          "       \"retention_scale_end\": %.6g, \"worst_wear\": %.6g, "
          "\"refresh_duty_end\": %.6g, \"avg_search_wait_end_s\": %.6e}",
          first ? "" : ",\n", pr.key.write_rate,
          pr.key.refresh_period_scale, pr.key.retention_derate,
          pr.key.remap ? "true" : "false", r.died ? "true" : "false",
          lived(r, a.horizon) / units::year, r.died ? "false" : "true",
          years_or_never(r.t_first_dead), years_or_never(r.t_first_weak),
          years_or_never(r.t_window_lost), r.rows_retired, r.spares_left,
          r.circuit_checks, r.events.size(), r.searches, r.writes,
          r.search_energy, r.write_energy, r.refresh_energy, r.refresh_ops,
          r.weak_refresh_ops, r.avg_search_latency(), r.delay_scale_end,
          r.energy_scale_end, r.retention_scale_end, r.worst_wear,
          r.refresh_duty_end, r.avg_search_wait_end);
      first = false;
    }
    std::fprintf(f, "\n    ]%s\n", ti + 1 < a.techs.size() ? "," : "");
  }
  // The headline robustness number: per NEM point, remap-on lifetime over
  // remap-off lifetime (censored ratios flagged).
  std::fprintf(f,
               "  },\n"
               "  \"nem_remap_extension\": [\n");
  bool first = true;
  for (const double wr : a.write_rates)
    for (const auto& [rps, derate] : a.refresh) {
      const PointResult* on =
          find_point(core::TcamTech::Nem3T2N, wr, rps, derate, true);
      const PointResult* off =
          find_point(core::TcamTech::Nem3T2N, wr, rps, derate, false);
      if (on == nullptr || off == nullptr || !on->ok || !off->ok) continue;
      std::fprintf(
          f,
          "%s    {\"write_rate_hz\": %.6e, \"refresh_period_scale\": %.3g,"
          " \"retention_derate\": %.3g,\n"
          "     \"lifetime_on_years\": %.6e, \"lifetime_off_years\": %.6e,"
          " \"extension\": %.6g, \"censored\": %s}",
          first ? "" : ",\n", wr, rps, derate,
          lived(on->res, a.horizon) / units::year,
          lived(off->res, a.horizon) / units::year,
          off->res.died
              ? lived(on->res, a.horizon) / lived(off->res, a.horizon)
              : 1.0,
          on->res.died && off->res.died ? "false" : "true");
      first = false;
    }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote BENCH_lifetime.json\n");
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  const SweepAxes a = axes();
  std::printf("\nLifetime sweep%s — %zu technologies x %zu write rates x "
              "%zu refresh variants (NEM with remap on/off), %zu points, "
              "%zu failed\n",
              g_smoke ? " (smoke)" : "", a.techs.size(),
              a.write_rates.size(), a.refresh.size(),
              g_results.size(), g_failed);
  print_tables(a);
  write_json(a);

  // The bench's own acceptance gates: every point ran, and spare-row
  // remap demonstrably extends NEM lifetime wherever the remap-off arm
  // died before the horizon.
  bool extension_ok = true;
  for (const auto& pr : g_results) {
    if (pr.key.tech != core::TcamTech::Nem3T2N || !pr.key.remap || !pr.ok)
      continue;
    const PointResult* off =
        find_point(core::TcamTech::Nem3T2N, pr.key.write_rate,
                   pr.key.refresh_period_scale, pr.key.retention_derate,
                   false);
    if (off == nullptr || !off->ok || !off->res.died) continue;
    if (lived(pr.res, a.horizon) <= lived(off->res, a.horizon)) {
      std::fprintf(stderr,
                   "remap did not extend NEM lifetime at write=%.3g "
                   "rps=%.2g derate=%.2g\n",
                   pr.key.write_rate, pr.key.refresh_period_scale,
                   pr.key.retention_derate);
      extension_ok = false;
    }
  }
  return g_failed == 0 && extension_ok ? 0 : 1;
}
