// Fault-injection Monte-Carlo campaign (robustness PR — no paper figure).
//
// For each technology and per-cell defect rate, a seeded campaign draws a
// deterministic fault map over a 64×64 array (fault/FaultModel), replays a
// batch of behavioral searches against the golden ternary semantics, and
// reports the array-level match-error rate split into false matches
// (dropped mismatches — stuck-open/gate-leak/drift) and missed matches
// (forced discharges — stuck-closed), plus delay and energy quantiles:
//  - search delay is the technology's 1-bit-mismatch reference latency
//    stretched by the worst surviving discharge path's delay_scale (a
//    drifted contact that still beats the strobe slows the whole sense);
//  - search energy scales with the fraction of rows that discharge (ML
//    recharge dominates the data-dependent part of search energy).
// Every trial runs under util::run_sweep_guarded, so a poisoned trial
// would surface as a per-index failure record, not a crash — the campaign
// asserts zero such records.
//
// The binary closes with a circuit-level recovery-ladder demo: both
// relays of a 3T2N cell fragment fractured open (g_off = 0) by the
// FaultInjector leave the sense node with no DC path; the plain Newton
// solve is singular and the gmin-ramp stage of the ladder rescues it,
// printed straight from the SolverDiagnostics.
//
// Results go to BENCH_fault_campaign.json.
#include <cstdio>
#include <string>
#include <vector>

#include "BenchCommon.h"
#include "core/EnergyModel.h"
#include "devices/Mosfet.h"
#include "devices/NemRelay.h"
#include "devices/Sources.h"
#include "fault/FaultInjector.h"
#include "fault/FaultModel.h"
#include "spice/Newton.h"
#include "spice/Recovery.h"
#include "util/Random.h"
#include "util/Stats.h"
#include "util/Sweep.h"
#include "util/Table.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::bench;
using namespace nemtcam::fault;
using core::Ternary;
using core::TernaryWord;

constexpr int kTrialsPerPoint = 64;
constexpr int kSearchesPerTrial = 8;
const std::vector<double> kFaultRates = {0.0, 1e-4, 1e-3, 5e-3, 2e-2};

TernaryWord random_word(util::Rng& rng, int width, double x_density) {
  TernaryWord w(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i) {
    if (rng.uniform(0.0, 1.0) < x_density)
      w[static_cast<std::size_t>(i)] = Ternary::X;
    else
      w[static_cast<std::size_t>(i)] =
          rng.uniform(0.0, 1.0) < 0.5 ? Ternary::Zero : Ternary::One;
  }
  return w;
}

// Fully-specified search key (keys carry no X in the LPM-style workloads).
TernaryWord random_key(util::Rng& rng, int width) {
  return random_word(rng, width, 0.0);
}

struct TrialOutcome {
  // Reproduction record: the trial's seed and the exact fault map it
  // drew. draw_faults(seed, kRows, kWidth, FaultRates::uniform(rate))
  // regenerates `fault_list` bit-for-bit, so any trial in the JSON can be
  // replayed standalone.
  std::uint64_t seed = 0;
  std::vector<FaultSpec> fault_list;
  int rows_checked = 0;
  int row_errors = 0;     // faulty match != golden match
  int false_matches = 0;  // golden mismatch reported as match
  int missed_matches = 0; // golden match reported as mismatch
  // Directed near-miss sweep: every (row, specified column) one-bit-off
  // probe, evaluated on its target row only. A false match here needs that
  // exact cell's compare branch dropped (stuck-open / gate-leak / drift),
  // so this measures P(false match | single-bit mismatch) with enough
  // probes to resolve it.
  int near_miss_probes = 0;
  int near_miss_false_matches = 0;
  double worst_delay_scale = 1.0;
  std::vector<double> delays;    // s, one per behavioral search
  std::vector<double> energies;  // J, one per behavioral search
};

TrialOutcome run_trial(core::TcamTech tech, double rate, std::size_t trial,
                       std::uint64_t seed) {
  const core::EnergyModel model(tech, kWidth, kRows);
  const FaultReport report =
      draw_faults(seed, kRows, kWidth, FaultRates::uniform(rate));

  util::Rng rng(seed ^ 0xfau);
  std::vector<TernaryWord> stored;
  stored.reserve(static_cast<std::size_t>(kRows));
  for (int r = 0; r < kRows; ++r)
    stored.push_back(random_word(rng, kWidth, /*x_density=*/0.25));

  TrialOutcome out;
  out.seed = seed;
  out.fault_list = report.faults;
  for (int s = 0; s < kSearchesPerTrial; ++s) {
    // Mix of search classes: exact-target keys (golden match, so missed
    // matches from stuck-closed faults are observable), one-bit-off
    // near-miss keys (a single mismatching cell, so a dropped branch flips
    // the row — the false-match case), and random probes.
    TernaryWord key = random_key(rng, kWidth);
    if (s % 4 != 3) {
      const TernaryWord& target =
          stored[static_cast<std::size_t>(rng.uniform_int(0, kRows - 1))];
      for (int i = 0; i < kWidth; ++i) {
        const Ternary b = target[static_cast<std::size_t>(i)];
        if (b != Ternary::X) key[static_cast<std::size_t>(i)] = b;
      }
      if (s % 4 == 2) {
        // Flip one specified bit to make a single-cell mismatch.
        for (int tries = 0; tries < kWidth; ++tries) {
          const int i = rng.uniform_int(0, kWidth - 1);
          if (target[static_cast<std::size_t>(i)] == Ternary::X) continue;
          key[static_cast<std::size_t>(i)] =
              target[static_cast<std::size_t>(i)] == Ternary::One
                  ? Ternary::Zero
                  : Ternary::One;
          break;
        }
      }
    }
    int discharged = 0;
    double delay_scale = 1.0;
    for (int r = 0; r < kRows; ++r) {
      const bool golden = stored[static_cast<std::size_t>(r)].matches(key);
      const RowOutcome row =
          faulty_row_match(stored[static_cast<std::size_t>(r)], key, report, r);
      ++out.rows_checked;
      if (row.match != golden) {
        ++out.row_errors;
        if (row.match)
          ++out.false_matches;
        else
          ++out.missed_matches;
      }
      if (!row.match) {
        ++discharged;
        delay_scale = std::max(delay_scale, row.delay_scale);
      }
    }
    out.worst_delay_scale = std::max(out.worst_delay_scale, delay_scale);
    out.delays.push_back(model.search_latency() * delay_scale);
    out.energies.push_back(
        model.search_energy() *
        (0.5 + 0.5 * static_cast<double>(discharged) / kRows));
  }

  // Directed near-miss sweep (per-row evaluation only — the other rows'
  // behavior is already sampled by the search mix above).
  for (int r = 0; r < kRows; ++r) {
    const TernaryWord& word = stored[static_cast<std::size_t>(r)];
    for (int i = 0; i < kWidth; ++i) {
      const Ternary b = word[static_cast<std::size_t>(i)];
      if (b == Ternary::X) continue;
      TernaryWord key(static_cast<std::size_t>(kWidth));
      for (int j = 0; j < kWidth; ++j) {
        const Ternary bj = word[static_cast<std::size_t>(j)];
        key[static_cast<std::size_t>(j)] =
            bj == Ternary::X
                ? (rng.uniform(0.0, 1.0) < 0.5 ? Ternary::Zero : Ternary::One)
                : bj;
      }
      key[static_cast<std::size_t>(i)] =
          b == Ternary::One ? Ternary::Zero : Ternary::One;
      ++out.near_miss_probes;
      if (faulty_row_match(word, key, report, r).match)
        ++out.near_miss_false_matches;
    }
  }
  (void)trial;
  return out;
}

// Per-trial reproduction record kept for the JSON: always the seed and
// the headline counts; the full injected fault list only for trials that
// actually misbehaved (row errors or a guarded-sweep failure), capped per
// point so hot fault rates don't balloon the file — the seed regenerates
// the list for any trial either way.
struct TrialRecord {
  std::uint64_t seed = 0;
  bool ok = true;
  std::string error;
  int n_faults = 0;
  int row_errors = 0;
  std::vector<FaultSpec> fault_list;  // empty unless recorded (see cap)
};

constexpr int kMaxFaultListsPerPoint = 3;

struct CampaignPoint {
  double rate = 0.0;
  int trials = 0;
  int failed_trials = 0;  // guarded-sweep failure records (must stay 0)
  std::vector<TrialRecord> trial_records;
  int fault_lists_truncated = 0;  // misbehaving trials past the list cap
  double row_error_rate = 0.0;
  double false_match_rate = 0.0;
  double missed_match_rate = 0.0;
  // P(false match | single-bit mismatch), from the directed sweep.
  double near_miss_false_match_rate = 0.0;
  double delay_p50 = 0.0, delay_p95 = 0.0, delay_p99 = 0.0;
  double energy_p50 = 0.0, energy_p95 = 0.0, energy_p99 = 0.0;
};

struct CampaignSeries {
  core::TcamTech tech;
  std::vector<CampaignPoint> points;
};

std::vector<CampaignSeries> g_series;
std::size_t g_total_trials = 0;
std::size_t g_total_failed = 0;

CampaignPoint run_point(core::TcamTech tech, double rate,
                        std::uint64_t base_seed) {
  util::SweepOptions sweep;
  sweep.base_seed = base_seed;
  const auto items = util::run_sweep_guarded<TrialOutcome>(
      kTrialsPerPoint,
      [tech, rate](std::size_t trial, std::uint64_t seed) {
        return run_trial(tech, rate, trial, seed);
      },
      sweep);

  CampaignPoint pt;
  pt.rate = rate;
  pt.trials = kTrialsPerPoint;
  long rows = 0, errs = 0, fm = 0, mm = 0, nm = 0, nm_fm = 0;
  std::vector<double> delays, energies;
  int fault_lists = 0;
  for (std::size_t idx = 0; idx < items.size(); ++idx) {
    const auto& item = items[idx];
    TrialRecord rec;
    rec.seed = util::sweep_trial_seed(sweep.base_seed, idx);
    rec.ok = item.ok;
    if (!item.ok) {
      rec.error = item.error;
      if (fault_lists < kMaxFaultListsPerPoint) {
        // The trial died before returning its map: redraw it from the
        // seed so the record still shows what was injected.
        rec.fault_list =
            draw_faults(rec.seed, kRows, kWidth, FaultRates::uniform(rate))
                .faults;
        rec.n_faults = static_cast<int>(rec.fault_list.size());
        ++fault_lists;
      } else {
        ++pt.fault_lists_truncated;
      }
      pt.trial_records.push_back(std::move(rec));
      ++pt.failed_trials;
      std::fprintf(stderr, "trial failed: %s\n", item.error.c_str());
      continue;
    }
    rec.n_faults = static_cast<int>(item.value.fault_list.size());
    rec.row_errors = item.value.row_errors;
    if (item.value.row_errors > 0) {
      if (fault_lists < kMaxFaultListsPerPoint) {
        rec.fault_list = item.value.fault_list;
        ++fault_lists;
      } else {
        ++pt.fault_lists_truncated;
      }
    }
    pt.trial_records.push_back(std::move(rec));
    rows += item.value.rows_checked;
    errs += item.value.row_errors;
    fm += item.value.false_matches;
    mm += item.value.missed_matches;
    nm += item.value.near_miss_probes;
    nm_fm += item.value.near_miss_false_matches;
    delays.insert(delays.end(), item.value.delays.begin(),
                  item.value.delays.end());
    energies.insert(energies.end(), item.value.energies.begin(),
                    item.value.energies.end());
  }
  if (rows > 0) {
    pt.row_error_rate = static_cast<double>(errs) / static_cast<double>(rows);
    pt.false_match_rate =
        static_cast<double>(fm) / static_cast<double>(rows);
    pt.missed_match_rate =
        static_cast<double>(mm) / static_cast<double>(rows);
  }
  if (nm > 0)
    pt.near_miss_false_match_rate =
        static_cast<double>(nm_fm) / static_cast<double>(nm);
  pt.delay_p50 = util::percentile(delays, 50.0);
  pt.delay_p95 = util::percentile(delays, 95.0);
  pt.delay_p99 = util::percentile(delays, 99.0);
  pt.energy_p50 = util::percentile(energies, 50.0);
  pt.energy_p95 = util::percentile(energies, 95.0);
  pt.energy_p99 = util::percentile(energies, 99.0);
  return pt;
}

void BM_FaultCampaign(benchmark::State& state) {
  for (auto _ : state) {
    g_series.clear();
    g_total_trials = 0;
    g_total_failed = 0;
    std::uint64_t seed = 0x5eedu;
    const core::TcamTech techs[] = {
        core::TcamTech::Sram16T, core::TcamTech::Nem3T2N,
        core::TcamTech::Rram2T2R, core::TcamTech::Fefet2F};
    for (const core::TcamTech tech : techs) {
      CampaignSeries series;
      series.tech = tech;
      for (const double rate : kFaultRates) {
        series.points.push_back(run_point(tech, rate, seed++));
        g_total_trials += static_cast<std::size_t>(kTrialsPerPoint);
        g_total_failed +=
            static_cast<std::size_t>(series.points.back().failed_trials);
      }
      g_series.push_back(std::move(series));
    }
    benchmark::DoNotOptimize(g_series.size());
  }
  state.counters["trials"] = static_cast<double>(g_total_trials);
  state.counters["failed_trials"] = static_cast<double>(g_total_failed);
}

BENCHMARK(BM_FaultCampaign)->Iterations(1)->Unit(benchmark::kMillisecond);

// Circuit-level ladder demo: the acceptance-criterion stuck-relay recovery.
struct LadderDemo {
  bool plain_singular = false;
  bool recovered = false;
  std::string stage;
  double residual_gmin = 0.0;
  std::string summary;
};

LadderDemo run_ladder_demo() {
  using devices::Mosfet;
  using devices::MosfetParams;
  using devices::NemRelay;
  using devices::VSource;

  spice::Circuit ckt;
  const spice::NodeId sl = ckt.node("sl_0");
  const spice::NodeId slb = ckt.node("slb_0");
  const spice::NodeId gs = ckt.node("gs_0");
  const spice::NodeId ml = ckt.node("ml_0");
  ckt.add<VSource>("Vslb", slb, ckt.ground(), 1.0);
  ckt.add<VSource>("Vsl", sl, ckt.ground(), 0.0);
  ckt.add<VSource>("Vml", ml, ckt.ground(), 1.0);
  ckt.add<NemRelay>("N1_0", slb, ckt.node("stg1_0"), gs, ckt.ground());
  ckt.add<NemRelay>("N2_0", sl, ckt.node("stg2_0"), gs, ckt.ground());
  ckt.add<Mosfet>("Ts_0", ml, gs, ckt.ground(), MosfetParams::nmos_lp());

  const FaultInjector inj;
  inj.apply(ckt, FaultSpec{0, 0, FaultKind::RelayStuckOpen, true, true});
  inj.apply(ckt, FaultSpec{0, 0, FaultKind::RelayStuckOpen, false, true});

  std::vector<double> v(static_cast<std::size_t>(ckt.unknown_count()), 0.0);
  const std::vector<double> v_prev = v;
  spice::NewtonOptions opts;  // gmin = 0 exposes the floating sense node
  LadderDemo demo;
  const spice::NewtonResult plain =
      spice::solve_newton(ckt, 0.0, 0.0, true, v, v_prev, opts);
  demo.plain_singular = plain.singular && !plain.converged;

  spice::SolverDiagnostics diag;
  const spice::NewtonResult rec = spice::solve_newton_recovering(
      ckt, 0.0, 0.0, true, v, v_prev, opts, spice::RecoveryOptions{}, &diag);
  demo.recovered = rec.converged && diag.recovered;
  demo.stage = spice::stage_name(diag.converged_stage);
  demo.residual_gmin = diag.residual_gmin;
  demo.summary = diag.summary();
  return demo;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  std::printf("\nFault campaign — 64×64 behavioral array, %d trials x "
              "%zu rates x 4 technologies (%zu trials total, %zu failed)\n",
              kTrialsPerPoint, kFaultRates.size(), g_total_trials,
              g_total_failed);
  for (const auto& series : g_series) {
    std::printf("\n%s\n", core::tech_name(series.tech));
    util::Table t({"fault rate", "row err", "false|1bit", "missed match",
                   "delay p50", "delay p99", "energy p50", "energy p99"});
    for (const auto& pt : series.points)
      t.add_row({util::si_format(pt.rate, "", 3),
                 util::si_format(pt.row_error_rate, "", 3),
                 util::si_format(pt.near_miss_false_match_rate, "", 3),
                 util::si_format(pt.missed_match_rate, "", 3),
                 util::si_format(pt.delay_p50, "s", 3),
                 util::si_format(pt.delay_p99, "s", 3),
                 util::si_format(pt.energy_p50, "J", 3),
                 util::si_format(pt.energy_p99, "J", 3)});
    std::printf("%s", t.to_string().c_str());
  }

  const LadderDemo demo = run_ladder_demo();
  std::printf("\nRecovery-ladder demo — 3T2N cell, both relays fractured "
              "open (g_off = 0):\n"
              "  plain Newton singular: %s\n"
              "  ladder: %s\n"
              "  residual gmin floor: %.3e S\n",
              demo.plain_singular ? "yes" : "NO (unexpected)",
              demo.summary.c_str(), demo.residual_gmin);

  FILE* f = std::fopen("BENCH_fault_campaign.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"trials_total\": %zu,\n"
                 "  \"trials_failed\": %zu,\n"
                 "  \"trials_per_point\": %d,\n"
                 "  \"searches_per_trial\": %d,\n"
                 "  \"array\": {\"rows\": %d, \"width\": %d},\n"
                 "  \"campaign\": {\n",
                 g_total_trials, g_total_failed, kTrialsPerPoint,
                 kSearchesPerTrial, kRows, kWidth);
    for (std::size_t i = 0; i < g_series.size(); ++i) {
      const auto& series = g_series[i];
      std::fprintf(f, "    \"%s\": [\n", core::tech_name(series.tech));
      for (std::size_t j = 0; j < series.points.size(); ++j) {
        const auto& pt = series.points[j];
        std::fprintf(
            f,
            "      {\"fault_rate\": %.6e, \"trials\": %d,"
            " \"failed_trials\": %d,"
            " \"row_error_rate\": %.6e, \"false_match_rate\": %.6e,"
            " \"missed_match_rate\": %.6e,"
            " \"near_miss_false_match_rate\": %.6e,"
            " \"delay_s\": {\"p50\": %.6e, \"p95\": %.6e, \"p99\": %.6e},"
            " \"energy_j\": {\"p50\": %.6e, \"p95\": %.6e, \"p99\": %.6e},"
            " \"fault_lists_truncated\": %d,\n"
            "       \"trial_records\": [",
            pt.rate, pt.trials, pt.failed_trials, pt.row_error_rate,
            pt.false_match_rate, pt.missed_match_rate,
            pt.near_miss_false_match_rate, pt.delay_p50, pt.delay_p95,
            pt.delay_p99, pt.energy_p50, pt.energy_p95, pt.energy_p99,
            pt.fault_lists_truncated);
        for (std::size_t k = 0; k < pt.trial_records.size(); ++k) {
          const TrialRecord& rec = pt.trial_records[k];
          std::fprintf(f,
                       "%s\n        {\"seed\": %llu, \"ok\": %s, "
                       "\"n_faults\": %d, \"row_errors\": %d",
                       k > 0 ? "," : "",
                       static_cast<unsigned long long>(rec.seed),
                       rec.ok ? "true" : "false", rec.n_faults,
                       rec.row_errors);
          if (!rec.error.empty())
            std::fprintf(f, ", \"error\": \"%s\"", rec.error.c_str());
          if (!rec.fault_list.empty()) {
            std::fprintf(f, ", \"fault_list\": [");
            for (std::size_t q = 0; q < rec.fault_list.size(); ++q) {
              const FaultSpec& fs = rec.fault_list[q];
              std::fprintf(f,
                           "%s{\"row\": %d, \"col\": %d, \"kind\": \"%s\","
                           " \"on_n1\": %s, \"positive\": %s}",
                           q > 0 ? ", " : "", fs.row, fs.col,
                           fault_kind_name(fs.kind),
                           fs.on_n1 ? "true" : "false",
                           fs.positive ? "true" : "false");
            }
            std::fprintf(f, "]");
          }
          std::fprintf(f, "}");
        }
        std::fprintf(f, "]}%s\n",
                     j + 1 < series.points.size() ? "," : "");
      }
      std::fprintf(f, "    ]%s\n", i + 1 < g_series.size() ? "," : "");
    }
    std::fprintf(f,
                 "  },\n"
                 "  \"ladder_demo\": {\n"
                 "    \"plain_newton_singular\": %s,\n"
                 "    \"recovered\": %s,\n"
                 "    \"stage\": \"%s\",\n"
                 "    \"residual_gmin\": %.6e,\n"
                 "    \"summary\": \"%s\"\n"
                 "  }\n"
                 "}\n",
                 demo.plain_singular ? "true" : "false",
                 demo.recovered ? "true" : "false", demo.stage.c_str(),
                 demo.residual_gmin, demo.summary.c_str());
    std::fclose(f);
    std::printf("\nwrote BENCH_fault_campaign.json\n");
  }
  return g_total_failed == 0 && demo.recovered ? 0 : 1;
}
