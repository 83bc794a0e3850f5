// Multi-rate lifetime co-simulation (lifetime/LifetimeEngine) and the
// degradation-feedback plumbing around it: multi-rate vs brute-force
// agreement, seed determinism across thread counts, spare-row remap
// extending NEM lifetime, refresh-window loss, one pinned smoke point per
// technology, FaultAwareness normalization, BankedTcam retirement ×
// fault-aware refresh, and the physical saturation bounds on the device
// aging hooks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "arch/BankedTcam.h"
#include "arch/RefreshController.h"
#include "devices/Mosfet.h"
#include "devices/NemRelay.h"
#include "fault/FaultInjector.h"
#include "fault/FaultModel.h"
#include "lifetime/Degradation.h"
#include "lifetime/Hazard.h"
#include "lifetime/LifetimeEngine.h"
#include "spice/Circuit.h"
#include "tcam/RowSpecs.h"
#include "tcam/SearchTemplate.h"
#include "util/Sweep.h"
#include "util/Units.h"

#include "SameSearch.h"

namespace nemtcam {
namespace {

using arch::BankedTcam;
using arch::FaultAwareness;
using lifetime::EventKind;
using lifetime::LifetimeConfig;
using lifetime::LifetimeEngine;
using lifetime::LifetimeResult;

// Short-horizon config with forced state changes: two faults land inside
// a 1 ms window so the multi-rate engine has segment boundaries to get
// right (the acceptance-criterion setup for brute-force agreement).
LifetimeConfig short_horizon_config() {
  LifetimeConfig cfg;
  cfg.tech = core::TcamTech::Nem3T2N;
  cfg.rows = 8;
  cfg.width = 8;
  cfg.spare_rows = 2;
  cfg.horizon = 1e-3;
  cfg.traffic.search_rate_hz = 2e4;  // 20 searches over the window
  cfg.traffic.write_rate_hz = 1e3;
  cfg.seed = 7;
  cfg.max_circuit_checks = 8;
  cfg.forced_faults.push_back(
      {0.3e-3, fault::FaultSpec{2, 1, fault::FaultKind::ContactDrift, true,
                               true}});
  cfg.forced_faults.push_back(
      {0.7e-3, fault::FaultSpec{2, 3, fault::FaultKind::MosVthOutlier, true,
                               false}});
  return cfg;
}

TEST(LifetimeEngine, MultiRateMatchesBruteForceWithinOnePercent) {
  LifetimeConfig cfg = short_horizon_config();
  LifetimeResult multi = LifetimeEngine(cfg).run();

  cfg.brute_force = true;
  LifetimeResult brute = LifetimeEngine(cfg).run();

  ASSERT_GT(multi.searches, 0.0);
  EXPECT_EQ(multi.searches, brute.searches);
  EXPECT_EQ(multi.writes, brute.writes);
  ASSERT_GT(brute.search_energy, 0.0);
  EXPECT_NEAR(multi.search_energy / brute.search_energy, 1.0, 0.01);
  EXPECT_NEAR(multi.search_time / brute.search_time, 1.0, 0.01);
  if (brute.refresh_energy > 0.0) {
    EXPECT_NEAR(multi.refresh_energy / brute.refresh_energy, 1.0, 0.01);
  }
  // Both modes saw the same forced state changes.
  const auto count = [](const LifetimeResult& r, EventKind k) {
    return std::count_if(r.events.begin(), r.events.end(),
                         [k](const auto& e) { return e.kind == k; });
  };
  EXPECT_EQ(count(multi, EventKind::Forced), 2);
  EXPECT_EQ(count(multi, EventKind::Forced), count(brute, EventKind::Forced));
}

TEST(LifetimeEngine, BitDeterministicForFixedSeed) {
  const LifetimeConfig cfg = short_horizon_config();
  const LifetimeResult a = LifetimeEngine(cfg).run();
  const LifetimeResult b = LifetimeEngine(cfg).run();
  EXPECT_EQ(a.search_energy, b.search_energy);
  EXPECT_EQ(a.search_time, b.search_time);
  EXPECT_EQ(a.refresh_energy, b.refresh_energy);
  EXPECT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.circuit_checks, b.circuit_checks);
}

TEST(LifetimeEngine, SweepResultsIdenticalAtAnyThreadCount) {
  // Year-scale runs, four sweep points, executed serially and on four
  // threads: each point is seeded from its index only, so the numbers
  // must be bit-identical (run_sweep determinism contract).
  const auto body = [](std::size_t i, std::uint64_t seed) {
    LifetimeConfig cfg;
    cfg.tech = core::TcamTech::Nem3T2N;
    cfg.rows = 12;
    cfg.width = 8;
    cfg.spare_rows = 2;
    cfg.horizon = 2.0 * units::year;
    cfg.traffic.write_rate_hz = 1e4 * static_cast<double>(i + 1);
    cfg.seed = seed;
    cfg.max_circuit_checks = 2;
    return LifetimeEngine(cfg).run();
  };
  util::SweepOptions serial;
  serial.threads = 1;
  util::SweepOptions wide;
  wide.threads = 4;
  const auto a = util::run_sweep_guarded<LifetimeResult>(4, body, serial);
  const auto b = util::run_sweep_guarded<LifetimeResult>(4, body, wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].ok && b[i].ok);
    EXPECT_EQ(a[i].value.t_death, b[i].value.t_death);
    EXPECT_EQ(a[i].value.search_energy, b[i].value.search_energy);
    EXPECT_EQ(a[i].value.refresh_energy, b[i].value.refresh_energy);
    EXPECT_EQ(a[i].value.events.size(), b[i].value.events.size());
  }
}

LifetimeConfig nem_wearout_config(bool remap) {
  LifetimeConfig cfg;
  cfg.tech = core::TcamTech::Nem3T2N;
  cfg.rows = 16;
  cfg.width = 16;
  cfg.spare_rows = 3;
  cfg.horizon = 5.0 * units::year;
  cfg.traffic.write_rate_hz = 1e5;
  cfg.seed = 11;
  cfg.remap_enabled = remap;
  cfg.max_circuit_checks = 2;
  return cfg;
}

TEST(LifetimeEngine, SpareRowRemapExtendsNemLifetime) {
  const LifetimeResult on = LifetimeEngine(nem_wearout_config(true)).run();
  const LifetimeResult off = LifetimeEngine(nem_wearout_config(false)).run();
  ASSERT_TRUE(off.died);
  ASSERT_TRUE(on.died);  // spare pool is finite: the array still dies
  EXPECT_GT(on.t_death, off.t_death);
  EXPECT_GT(on.rows_retired, 0);
  EXPECT_EQ(on.spares_left, 0);
  EXPECT_EQ(off.rows_retired, 0);
  // Remap-off dies at its first hard row failure.
  EXPECT_EQ(off.t_death, off.t_first_dead);
}

TEST(LifetimeEngine, RefreshWindowLossTriggersWearRunaway) {
  const LifetimeResult r = LifetimeEngine(nem_wearout_config(true)).run();
  ASSERT_GT(r.t_window_lost, 0.0);
  const auto it =
      std::find_if(r.events.begin(), r.events.end(), [](const auto& e) {
        return e.kind == EventKind::WindowLost;
      });
  ASSERT_NE(it, r.events.end());
  // Window loss happens when aged V_PI reaches V_R: at the default drift
  // law that is wear (v_pi - v_refresh) / drift_per_wear = 0.5 exactly.
  EXPECT_NEAR(it->wear, 0.5, 1e-9);
  // From then on one-shot refresh actuates THAT row: its wear runs away
  // (the refresh rate is orders of magnitude above any write rate), so
  // the same physical row reaches a hard failure shortly after — even
  // though other, hotter rows may have died from traffic much earlier.
  const int row = it->physical_row;
  const auto dead = std::find_if(
      it, r.events.end(), [row](const auto& e) {
        return e.physical_row == row && (e.kind == EventKind::DeadOnset ||
                                         e.kind == EventKind::FunctionalDead);
      });
  ASSERT_NE(dead, r.events.end());
  EXPECT_GT(dead->t, it->t);
  EXPECT_LT(dead->t - it->t, 0.1 * it->t);
}

// One seeded `bench_lifetime --smoke` point per technology (16×16 with 2
// spares, 2-year horizon, 10k writes/s, two circuit checks), seeded the
// way the bench seeds it. Runs are bit-deterministic, so every figure is
// pinned exactly: a change to the hazard, aging, traffic or refresh
// constants, or to the engine, shows up here.
struct SmokeGolden {
  core::TcamTech tech;
  std::size_t pair;  // the bench's sweep-point index for this seed
  double t_death;
  std::vector<EventKind> events;
  double search_energy, write_energy, refresh_energy;
};

TEST(LifetimeEngine, SmokePointsMatchRecordedGoldens) {
  using K = EventKind;
  const SmokeGolden goldens[] = {
      {core::TcamTech::Nem3T2N, 0, 7268719.6673666481,
       {K::DecadeCross, K::DecadeCross, K::DecadeCross, K::WeakOnset,
        K::WeakOnset, K::WindowLost, K::DeadOnset, K::RowRetired,
        K::DeadOnset, K::RowRetired, K::WeakOnset, K::DeadOnset,
        K::ArrayDeath},
       0.22762448575361696, 0.0014174003351235002, 0.085447171283166201},
      {core::TcamTech::Rram2T2R, 2, 8789.3651173131166,
       {K::DecadeCross, K::DecadeCross, K::DecadeCross, K::WeakOnset,
        K::DeadOnset, K::RowRetired, K::WeakOnset, K::WeakOnset,
        K::WeakOnset, K::DeadOnset, K::RowRetired, K::WeakOnset,
        K::DeadOnset, K::ArrayDeath},
       0.00030443679769884079, 0.00041090281842499996, 0.0},
  };
  for (const SmokeGolden& g : goldens) {
    SCOPED_TRACE(core::tech_name(g.tech));
    LifetimeConfig cfg;
    cfg.tech = g.tech;
    cfg.rows = 16;
    cfg.width = 16;
    cfg.spare_rows = 2;
    cfg.horizon = 2.0 * units::year;
    cfg.traffic.write_rate_hz = 1e4;
    cfg.max_circuit_checks = 2;
    cfg.seed = util::sweep_trial_seed(0x11fe71feu, g.pair);
    const LifetimeResult r = LifetimeEngine(cfg).run();
    EXPECT_TRUE(r.died);
    EXPECT_EQ(r.t_death, g.t_death);
    EXPECT_EQ(r.rows_retired, 2);
    std::vector<EventKind> kinds;
    for (const auto& e : r.events) kinds.push_back(e.kind);
    EXPECT_EQ(kinds, g.events);
    EXPECT_EQ(r.search_energy, g.search_energy);
    EXPECT_EQ(r.write_energy, g.write_energy);
    EXPECT_EQ(r.refresh_energy, g.refresh_energy);
  }
}

TEST(FaultAwareness, NormalizationDedupesAndAppliesPrecedence) {
  FaultAwareness raw;
  raw.weak_rows = {5, 3, 3, 9, -1, 64, 7};   // dupes, out of range
  raw.dead_rows = {7, 2, 2, 80};             // 7 is also weak
  raw.retired_rows = {9, 2, 2, -3};          // 9 weak, 2 dead, dupes
  const FaultAwareness n = raw.normalized(64);
  // Retired wins over dead wins over weak.
  EXPECT_EQ(n.retired_rows, (std::vector<int>{2, 9}));
  EXPECT_EQ(n.dead_rows, (std::vector<int>{7}));
  EXPECT_EQ(n.weak_rows, (std::vector<int>{3, 5}));
}

TEST(FaultAwareness, RetiredRowsLeaveTheRefreshSchedule) {
  arch::RefreshSimConfig cfg;
  cfg.rows = 8;
  cfg.width = 8;
  cfg.policy = arch::RefreshPolicy::RowByRow;
  cfg.poisson_arrivals = false;
  cfg.sim_time = 5e-3;  // ~190 retention periods: schedule quantization ≪ 1%

  const arch::RefreshSimResult healthy =
      arch::simulate_refresh_interference(cfg);
  cfg.faults.retired_rows = {6, 7};
  const arch::RefreshSimResult retired =
      arch::simulate_refresh_interference(cfg);
  EXPECT_EQ(retired.rows_excluded, 2);
  ASSERT_GT(healthy.refresh_energy, 0.0);
  // Row-by-row: two of eight rows dropped from the schedule.
  EXPECT_LT(retired.refresh_energy, healthy.refresh_energy);
  EXPECT_NEAR(retired.refresh_energy / healthy.refresh_energy, 6.0 / 8.0,
              0.02);
}

// Satellite: spare-row retirement × fault-aware refresh. A retired row
// must drop out of the refresh schedule entirely; its replacement (the
// spare now holding the data) inherits the weak-row period if the spare
// itself is degraded.
TEST(BankedTcam, RetirementFeedsFaultAwareRefresh) {
  BankedTcam tcam(core::TcamTech::Nem3T2N, /*banks=*/1, /*rows_per_bank=*/8,
                  /*width=*/8, /*spare_rows=*/2);
  ASSERT_EQ(tcam.capacity(), 8);
  ASSERT_EQ(tcam.logical_capacity(), 6);

  // Physical-space campaign result: row 1 has a hard fault, row 2 and
  // spare row 6 leak.
  fault::FaultReport report;
  report.rows = 8;
  report.width = 8;
  report.faults = {
      {1, 0, fault::FaultKind::RelayStuckClosed, true, true},
      {2, 2, fault::FaultKind::GateLeak, true, true},
      {6, 4, fault::FaultKind::GateLeak, true, true},
  };

  // Before retirement: unused spares are out of the schedule, row 1 dead,
  // rows 2 and 6... 6 is an unused spare, so retired wins over weak.
  FaultAwareness before = tcam.refresh_awareness(report);
  EXPECT_EQ(before.retired_rows, (std::vector<int>{6, 7}));
  EXPECT_EQ(before.dead_rows, (std::vector<int>{1}));
  EXPECT_EQ(before.weak_rows, (std::vector<int>{2}));

  // Retire logical row 1: its data migrates to physical row 6 (first
  // spare). The dead physical row 1 is now retired — out of the schedule
  // entirely — and the replacement row 6 surfaces with its own gate-leak
  // fault, inheriting the weak-row period.
  ASSERT_TRUE(tcam.retire_row(1));
  EXPECT_TRUE(tcam.retired_physical(1));
  EXPECT_EQ(tcam.physical_row(1), 6);
  EXPECT_EQ(tcam.logical_at(6), 1);

  FaultAwareness after = tcam.refresh_awareness(report);
  EXPECT_EQ(after.retired_rows, (std::vector<int>{1, 7}));
  EXPECT_TRUE(after.dead_rows.empty());
  EXPECT_EQ(after.weak_rows, (std::vector<int>{2, 6}));

  // And the schedule actually honors it: the retired row costs nothing,
  // the weak replacement costs supplemental refreshes.
  arch::RefreshSimConfig cfg;
  cfg.rows = tcam.capacity();
  cfg.width = 8;
  cfg.policy = arch::RefreshPolicy::OneShot;
  cfg.poisson_arrivals = false;
  cfg.sim_time = 100e-6;
  cfg.faults = after;
  const arch::RefreshSimResult sim = arch::simulate_refresh_interference(cfg);
  EXPECT_EQ(sim.rows_excluded, 2);
  EXPECT_GT(sim.weak_refresh_ops, 0u);
}

// Regression: the lifetime engine re-injects a row's accumulated fault
// list into its persistent measurement template on every circuit check,
// so every injector hook must be absolute. A relative Vth shift here made
// aged delay/energy (and the FunctionalDead verdict) functions of
// max_circuit_checks for every technology whose wear/leak channels map to
// MosVthOutlier.
TEST(FaultInjector, ReapplyingAFaultListIsIdempotent) {
  spice::Circuit c;
  auto& mos =
      c.add<devices::Mosfet>("M1_3", c.node("d"), c.node("g"), c.ground(),
                             devices::MosfetParams::nmos_lp());
  auto& relay = c.add<devices::NemRelay>("N1_3", c.node("rd"), c.node("rs"),
                                         c.node("rg"), c.ground());
  const fault::FaultInjector injector;
  const std::vector<fault::FaultSpec> faults = {
      {0, 3, fault::FaultKind::MosVthOutlier, true, true},
      {0, 3, fault::FaultKind::ContactDrift, true, true},
      {0, 3, fault::FaultKind::GateLeak, true, true},
  };
  for (const auto& f : faults) ASSERT_GT(injector.apply(c, f), 0);
  const double vth_once = mos.params().vth;
  const double r_on_once = relay.params().r_on;
  const double leak_once = relay.params().gate_leak_g;
  EXPECT_GT(vth_once, devices::MosfetParams::nmos_lp().vth);
  for (int rep = 0; rep < 4; ++rep)
    for (const auto& f : faults) injector.apply(c, f);
  EXPECT_EQ(mos.params().vth, vth_once);
  EXPECT_EQ(relay.params().r_on, r_on_once);
  EXPECT_EQ(relay.params().gate_leak_g, leak_once);
}

TEST(DegradationHooks, SaturateAtPhysicalBounds) {
  spice::Circuit c;
  auto& relay = c.add<devices::NemRelay>("N1", c.node("d"), c.node("s"),
                                         c.node("g"), c.ground());
  relay.set_contact_resistance(-5.0);
  EXPECT_EQ(relay.params().r_on, devices::NemRelay::kROnMin);
  relay.set_contact_resistance(1e30);
  EXPECT_EQ(relay.params().r_on, devices::NemRelay::kROnMax);
  relay.set_gate_leakage(-1.0);
  EXPECT_EQ(relay.params().gate_leak_g, 0.0);
  relay.set_gate_leakage(1.0);
  EXPECT_EQ(relay.params().gate_leak_g, devices::NemRelay::kLeakMax);
  // Pull-in drift can never invert the hysteresis window nor push V_PI
  // beyond drivable levels.
  relay.shift_pull_in(-100.0);
  EXPECT_GE(relay.params().v_pi,
            relay.params().v_po + devices::NemRelay::kWindowMin);
  relay.shift_pull_in(+100.0);
  EXPECT_LE(relay.params().v_pi, devices::NemRelay::kVpiMax);

  auto& mos = c.add<devices::Mosfet>("M1", c.node("md"), c.node("mg"),
                                     c.ground(),
                                     devices::MosfetParams::nmos_lp());
  mos.shift_vth(-100.0);
  EXPECT_EQ(mos.params().vth, devices::Mosfet::kVthMin);
  mos.shift_vth(+100.0);
  EXPECT_EQ(mos.params().vth, devices::Mosfet::kVthMax);
}

TEST(Hazard, FatesAreDeterministicAndFaultListsOrdered) {
  const lifetime::CellFate a = lifetime::cell_fate(42, 3, 5);
  const lifetime::CellFate b = lifetime::cell_fate(42, 3, 5);
  EXPECT_EQ(a.wear_dead, b.wear_dead);
  EXPECT_EQ(a.time_leak, b.time_leak);
  EXPECT_GT(a.wear_dead, 0.0);

  const auto faults = lifetime::faults_of_row(
      42, 3, 16, core::TcamTech::Nem3T2N, /*wear=*/1.5, /*now=*/0.0);
  // High wear: every cell has at least crossed its dead threshold well
  // before w = 1.5 (Weibull η ≈ 1, β large), and the list is col-ordered.
  EXPECT_FALSE(faults.empty());
  for (std::size_t i = 1; i < faults.size(); ++i)
    EXPECT_LT(faults[i - 1].col, faults[i].col);
  for (const auto& f : faults) EXPECT_EQ(f.row, 3);
}

// Aging edits device parameters in place (Degradation::apply_to_circuit,
// as the lifetime engine's circuit checks do), which changes the circuit's
// state at t = 0: the warm template's next search runs in full and equals
// a fresh template aged the same way before its first search.
TEST(DegradationHooks, AgingInPlaceForcesAFullSearch) {
  constexpr int kWidth = 16;
  const core::TernaryWord stored(kWidth, core::Ternary::One);
  core::TernaryWord miss = stored;
  miss[0] = core::Ternary::Zero;
  for (const tcam::TcamKind kind :
       {tcam::TcamKind::Nem3T2N, tcam::TcamKind::Rram2T2R,
        tcam::TcamKind::Fefet2F, tcam::TcamKind::Sram16T}) {
    SCOPED_TRACE(tcam::kind_name(kind));
    const tcam::SearchTemplateSpec spec =
        tcam::search_spec_for(kind, tcam::Calibration::standard());
    tcam::SearchTemplate warm(spec, kWidth, 64);
    const double strobe = warm.default_strobe();
    ASSERT_TRUE(warm.search(stored, stored, strobe).ok);
    lifetime::Degradation().apply_to_circuit(*warm.circuit(), 0.1, 0.0);
    const std::uint64_t before = tcam::solver_passes(warm);
    const tcam::SearchMetrics aged = warm.search(miss, stored, strobe);
    EXPECT_EQ(tcam::solver_passes(warm) - before, aged.newton_iters);

    tcam::SearchTemplate fresh(spec, kWidth, 64);
    fresh.ensure_built(miss, stored);
    lifetime::Degradation().apply_to_circuit(*fresh.circuit(), 0.1, 0.0);
    tcam::SearchMetrics ref = fresh.search(miss, stored, strobe);
    // An aged relay's gate leak is a new stamp: the warm 3T2N template
    // re-records its pattern once, where the fresh one recorded it with
    // the leak in.
    if (kind == tcam::TcamKind::Nem3T2N) ++ref.stamp_pattern_builds;
    tcam::expect_same_search(aged, ref);
  }
}

}  // namespace
}  // namespace nemtcam
