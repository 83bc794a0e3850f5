// Fault layer: deterministic per-cell draws, behavioral compare under
// faults, device-level injection by name convention, spare-row remapping,
// and fault-aware refresh scheduling.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "arch/BankedTcam.h"
#include "arch/RefreshController.h"
#include "core/Ternary.h"
#include "devices/Mosfet.h"
#include "devices/NemRelay.h"
#include "devices/Sources.h"
#include "fault/FaultInjector.h"
#include "fault/FaultModel.h"
#include "spice/Circuit.h"
#include "spice/Newton.h"
#include "spice/Recovery.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::fault;
using core::Ternary;
using core::TernaryWord;
using devices::Mosfet;
using devices::MosfetParams;
using devices::NemRelay;
using devices::NemRelayParams;
using devices::VSource;
using spice::Circuit;
using spice::NodeId;

TEST(FaultModel, DrawIsAPureFunctionOfSeedRowCol) {
  const FaultRates rates = FaultRates::uniform(0.3);
  for (int row = 0; row < 4; ++row) {
    for (int col = 0; col < 8; ++col) {
      const FaultSpec a = fault_at(99, row, col, rates);
      const FaultSpec b = fault_at(99, row, col, rates);
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.on_n1, b.on_n1);
      EXPECT_EQ(a.positive, b.positive);
    }
  }
  const FaultReport r1 = draw_faults(7, 16, 16, rates);
  const FaultReport r2 = draw_faults(7, 16, 16, rates);
  ASSERT_EQ(r1.faults.size(), r2.faults.size());
  for (std::size_t i = 0; i < r1.faults.size(); ++i) {
    EXPECT_EQ(r1.faults[i].row, r2.faults[i].row);
    EXPECT_EQ(r1.faults[i].col, r2.faults[i].col);
    EXPECT_EQ(r1.faults[i].kind, r2.faults[i].kind);
  }
  // A different seed draws a different map (16×16 at 30%: collision odds
  // are negligible).
  const FaultReport r3 = draw_faults(8, 16, 16, rates);
  EXPECT_NE(r1.faults.size() == r3.faults.size() &&
                [&] {
                  for (std::size_t i = 0; i < r1.faults.size(); ++i)
                    if (r1.faults[i].row != r3.faults[i].row ||
                        r1.faults[i].col != r3.faults[i].col ||
                        r1.faults[i].kind != r3.faults[i].kind)
                      return false;
                  return true;
                }(),
            true);
}

TEST(FaultModel, ZeroRateDrawsNothingAndUniformSplitsTheRate) {
  const FaultReport empty = draw_faults(1, 32, 32, FaultRates{});
  EXPECT_TRUE(empty.faults.empty());
  EXPECT_TRUE(empty.dead_rows().empty());
  EXPECT_TRUE(empty.weak_rows().empty());

  const FaultRates u = FaultRates::uniform(0.01);
  EXPECT_NEAR(u.total(), 0.01, 1e-12);
  EXPECT_NEAR(u.stuck_closed, 0.002, 1e-12);
  EXPECT_NEAR(u.contact_drift, 0.0025, 1e-12);
  EXPECT_NEAR(u.vth_outlier, 0.0015, 1e-12);
}

TEST(FaultModel, HealthClassification) {
  EXPECT_EQ(health_of(FaultKind::None), CellHealth::Healthy);
  EXPECT_EQ(health_of(FaultKind::RelayStuckClosed), CellHealth::Dead);
  EXPECT_EQ(health_of(FaultKind::RelayStuckOpen), CellHealth::Dead);
  EXPECT_EQ(health_of(FaultKind::ContactDrift), CellHealth::Weak);
  EXPECT_EQ(health_of(FaultKind::GateLeak), CellHealth::Weak);
  EXPECT_EQ(health_of(FaultKind::MosVthOutlier), CellHealth::Weak);
}

TEST(FaultModel, HealthyCellCompareMatchesTernarySemantics) {
  const Ternary vals[] = {Ternary::Zero, Ternary::One, Ternary::X};
  for (Ternary stored : vals) {
    for (Ternary key : vals) {
      const CellBehavior b =
          faulty_cell_compare(stored, key, FaultKind::None, true);
      EXPECT_EQ(b.discharges, !core::ternary_matches(stored, key))
          << "stored=" << static_cast<int>(stored)
          << " key=" << static_cast<int>(key);
      EXPECT_DOUBLE_EQ(b.delay_scale, 1.0);
    }
  }
}

TEST(FaultModel, StuckFaultsFlipTheAffectedBranch) {
  // Stuck-closed N1: SL̄ (asserted by key 0) always finds a closed relay,
  // even when the cell stores 0 — a forced mismatch on that polarity.
  EXPECT_TRUE(faulty_cell_compare(Ternary::Zero, Ternary::Zero,
                                  FaultKind::RelayStuckClosed, true)
                  .discharges);
  // …but key 1 exercises N2, which is healthy: stored 0 still discharges.
  EXPECT_TRUE(faulty_cell_compare(Ternary::Zero, Ternary::One,
                                  FaultKind::RelayStuckClosed, true)
                  .discharges);
  // Stuck-open N1: stored 1 never discharges on key 0 — a false match.
  EXPECT_FALSE(faulty_cell_compare(Ternary::One, Ternary::Zero,
                                   FaultKind::RelayStuckOpen, true)
                   .discharges);
  // The sibling branch is unaffected: stored 0, key 1 still mismatches.
  EXPECT_TRUE(faulty_cell_compare(Ternary::Zero, Ternary::One,
                                  FaultKind::RelayStuckOpen, true)
                  .discharges);
  // Gate leak releases the affected branch: degrades toward X (no
  // discharge) on the leaky side.
  EXPECT_FALSE(faulty_cell_compare(Ternary::One, Ternary::Zero,
                                   FaultKind::GateLeak, true)
                   .discharges);
  // Contact drift: the discharge path exists but misses the strobe.
  const CellBehavior drift = faulty_cell_compare(
      Ternary::One, Ternary::Zero, FaultKind::ContactDrift, true);
  EXPECT_FALSE(drift.discharges);
  // A Vth outlier is a delay outlier, not a logic fault.
  const CellBehavior vth = faulty_cell_compare(
      Ternary::One, Ternary::Zero, FaultKind::MosVthOutlier, true);
  EXPECT_TRUE(vth.discharges);
  EXPECT_GT(vth.delay_scale, 1.0);
}

TEST(FaultModel, RowMatchAggregatesCellOutcomes) {
  FaultReport report;
  report.rows = 1;
  report.width = 4;
  report.faults = {FaultSpec{0, 0, FaultKind::RelayStuckOpen, true, true}};

  TernaryWord stored(4);
  stored[0] = Ternary::One;
  stored[1] = Ternary::Zero;
  stored[2] = Ternary::One;
  stored[3] = Ternary::X;

  // Exact key: healthy rows match, and the stuck-open cell can only make
  // matching *more* likely, so still a match.
  EXPECT_TRUE(faulty_row_match(stored, stored, report, 0).match);

  // Mismatch only at the faulty column (key 0 vs stored 1 exercises the
  // broken N1): the mismatch is silently dropped — a false match.
  TernaryWord key = stored;
  key[0] = Ternary::Zero;
  EXPECT_TRUE(faulty_row_match(stored, key, report, 0).match);

  // Mismatch at a healthy column is still detected.
  TernaryWord key2 = stored;
  key2[1] = Ternary::One;
  const RowOutcome out = faulty_row_match(stored, key2, report, 0);
  EXPECT_FALSE(out.match);
  EXPECT_DOUBLE_EQ(out.delay_scale, 1.0);

  EXPECT_EQ(report.row_health(0), CellHealth::Dead);
  ASSERT_EQ(report.dead_rows().size(), 1u);
  EXPECT_EQ(report.dead_rows()[0], 0);
}

// Minimal cell fragment with the fixtures' naming convention: relays
// "N1_<col>"/"N2_<col>" and a sense MOSFET "Ts_<col>".
struct CellFragment {
  Circuit ckt;
  NemRelay* n1 = nullptr;
  NemRelay* n2 = nullptr;
  Mosfet* ts = nullptr;
};

CellFragment build_cell_fragment() {
  CellFragment f;
  const NodeId sl = f.ckt.node("sl_0");
  const NodeId slb = f.ckt.node("slb_0");
  const NodeId stg1 = f.ckt.node("stg1_0");
  const NodeId stg2 = f.ckt.node("stg2_0");
  const NodeId gs = f.ckt.node("gs_0");
  const NodeId ml = f.ckt.node("ml_0");
  f.ckt.add<VSource>("Vslb", slb, f.ckt.ground(), 1.0);
  f.ckt.add<VSource>("Vsl", sl, f.ckt.ground(), 0.0);
  f.n1 = &f.ckt.add<NemRelay>("N1_0", slb, stg1, gs, f.ckt.ground());
  f.n2 = &f.ckt.add<NemRelay>("N2_0", sl, stg2, gs, f.ckt.ground());
  f.ts = &f.ckt.add<Mosfet>("Ts_0", ml, gs, f.ckt.ground(),
                            MosfetParams::nmos_lp());
  return f;
}

TEST(FaultInjector, MutatesDevicesByNameConvention) {
  const FaultInjector inj;

  {
    CellFragment f = build_cell_fragment();
    EXPECT_EQ(inj.apply(f.ckt,
                        FaultSpec{0, 0, FaultKind::RelayStuckClosed, true,
                                  true}),
              1);
    EXPECT_TRUE(f.n1->stuck());
    EXPECT_TRUE(f.n1->contact());
    EXPECT_FALSE(f.n2->stuck());  // the sibling branch is untouched
  }
  {
    CellFragment f = build_cell_fragment();
    EXPECT_EQ(
        inj.apply(f.ckt,
                  FaultSpec{0, 0, FaultKind::RelayStuckOpen, false, true}),
        1);
    EXPECT_TRUE(f.n2->stuck());
    EXPECT_FALSE(f.n2->contact());
    EXPECT_EQ(f.n2->params().g_off, kGOffBroken);
  }
  {
    CellFragment f = build_cell_fragment();
    EXPECT_EQ(inj.apply(f.ckt,
                        FaultSpec{0, 0, FaultKind::ContactDrift, true, true}),
              1);
    EXPECT_DOUBLE_EQ(f.n1->params().r_on, kDriftROn);
  }
  {
    CellFragment f = build_cell_fragment();
    EXPECT_EQ(inj.apply(f.ckt,
                        FaultSpec{0, 0, FaultKind::GateLeak, true, true}),
              1);
    EXPECT_DOUBLE_EQ(f.n1->params().gate_leak_g, kLeakG);
  }
  {
    CellFragment f = build_cell_fragment();
    const double vth0 = f.ts->params().vth;
    // Every MOSFET in the column shares the outlier's corner.
    EXPECT_GE(inj.apply(f.ckt,
                        FaultSpec{0, 0, FaultKind::MosVthOutlier, true, true}),
              1);
    EXPECT_NEAR(f.ts->params().vth, vth0 + kVthShift, 1e-12);
  }
  {
    // A fault drawn for column 3 must not touch column 0's devices.
    CellFragment f = build_cell_fragment();
    EXPECT_EQ(inj.apply(f.ckt,
                        FaultSpec{0, 3, FaultKind::RelayStuckClosed, true,
                                  true}),
              0);
    EXPECT_FALSE(f.n1->stuck());
  }
}

TEST(FaultInjector, InjectDrawsAndAppliesDeterministically) {
  const FaultInjector inj;
  const FaultRates heavy = FaultRates::uniform(0.9);
  CellFragment a = build_cell_fragment();
  CellFragment b = build_cell_fragment();
  const auto fa = inj.inject(a.ckt, 5, 1, heavy);
  const auto fb = inj.inject(b.ckt, 5, 1, heavy);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].kind, fb[i].kind);
    EXPECT_EQ(fa[i].col, fb[i].col);
  }
}

// Acceptance-criterion demo at unit-test scale: a fractured-beam
// stuck-open injection (g_off = 0) on both relays leaves the cell's sense
// node gs_0 with no DC path anywhere — plain Newton is singular — yet the
// solve completes via the ladder's gmin ramp, visibly in the
// SolverDiagnostics. (In transient the sense MOSFET's gate capacitances
// hold the node, so the DC stamping is where the singularity bites.)
TEST(FaultInjector, InjectedStuckRelayCircuitRecoversViaLadder) {
  CellFragment f = build_cell_fragment();
  const FaultInjector inj;
  ASSERT_EQ(inj.apply(f.ckt,
                      FaultSpec{0, 0, FaultKind::RelayStuckOpen, true, true}),
            1);
  ASSERT_EQ(inj.apply(f.ckt,
                      FaultSpec{0, 0, FaultKind::RelayStuckOpen, false, true}),
            1);
  std::vector<double> v(static_cast<std::size_t>(f.ckt.unknown_count()), 0.0);
  const std::vector<double> v_prev = v;
  spice::NewtonOptions opts;  // gmin = 0: plain Newton sees the singularity
  const spice::NewtonResult plain =
      spice::solve_newton(f.ckt, 0.0, 0.0, /*is_dc=*/true, v, v_prev, opts);
  EXPECT_FALSE(plain.converged);
  EXPECT_TRUE(plain.singular);

  spice::SolverDiagnostics diag;
  spice::NewtonResult res;
  ASSERT_NO_THROW(res = spice::solve_newton_recovering(
                      f.ckt, 0.0, 0.0, /*is_dc=*/true, v, v_prev, opts,
                      spice::RecoveryOptions{}, &diag));
  ASSERT_TRUE(res.converged) << diag.summary();
  EXPECT_TRUE(diag.recovered);
  EXPECT_EQ(diag.converged_stage, spice::LadderStage::GminRamp);
  EXPECT_TRUE(diag.saw_singular);
  EXPECT_GT(diag.residual_gmin, 0.0);
  EXPECT_LE(diag.residual_gmin, 1e-9);
}

TEST(BankedTcamDegradation, RetiredRowKeepsItsLogicalIdentity) {
  arch::BankedTcam tcam(core::TcamTech::Nem3T2N, /*banks=*/2,
                        /*rows_per_bank=*/4, /*width=*/8, /*spare_rows=*/2);
  EXPECT_EQ(tcam.capacity(), 8);
  EXPECT_EQ(tcam.logical_capacity(), 6);
  EXPECT_EQ(tcam.spare_rows_free(), 2);

  for (int r = 0; r < tcam.logical_capacity(); ++r)
    tcam.write(r, TernaryWord::from_uint(static_cast<std::uint64_t>(r + 10),
                                         8));

  FaultReport report;
  report.rows = 6;
  report.width = 8;
  report.faults = {FaultSpec{1, 2, FaultKind::RelayStuckClosed, true, true}};
  EXPECT_EQ(tcam.apply_fault_report(report), 1);
  EXPECT_EQ(tcam.retired_rows(), 1);
  EXPECT_EQ(tcam.spare_rows_free(), 1);

  // Row 1's word migrated with it: it still answers at logical index 1.
  const auto hits = tcam.search(TernaryWord::from_uint(11, 8));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1);
  // Every other row is where it was.
  for (int r = 0; r < tcam.logical_capacity(); ++r) {
    const auto h =
        tcam.search_first(TernaryWord::from_uint(static_cast<std::uint64_t>(r + 10), 8));
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(*h, r);
  }
  // Rewriting the retired row lands on its new physical home.
  tcam.write(1, TernaryWord::from_uint(42, 8));
  const auto h42 = tcam.search_first(TernaryWord::from_uint(42, 8));
  ASSERT_TRUE(h42.has_value());
  EXPECT_EQ(*h42, 1);

  // Drain the pool: one spare left, then degradation without remap.
  EXPECT_TRUE(tcam.retire_row(2));
  EXPECT_EQ(tcam.spare_rows_free(), 0);
  EXPECT_FALSE(tcam.retire_row(3));
  EXPECT_EQ(tcam.retired_rows(), 2);
}

TEST(BankedTcamDegradation, SearchPriorityFollowsLogicalOrderAfterRemap) {
  arch::BankedTcam tcam(core::TcamTech::Nem3T2N, 2, 4, 8, /*spare_rows=*/2);
  const TernaryWord w = TernaryWord::from_uint(33, 8);
  tcam.write(0, w);
  tcam.write(1, w);
  tcam.write(4, w);
  ASSERT_TRUE(tcam.retire_row(0));  // physically moves to the spare region
  const auto hits = tcam.search(w);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0], 0);
  EXPECT_EQ(hits[1], 1);
  EXPECT_EQ(hits[2], 4);
  const auto first = tcam.search_first(w);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 0);
}

TEST(RefreshController, FaultAwareScheduleRefreshesWeakRowsMoreOften) {
  arch::RefreshSimConfig healthy;
  healthy.tech = core::TcamTech::Nem3T2N;
  healthy.policy = arch::RefreshPolicy::OneShot;
  healthy.rows = 16;
  healthy.sim_time = 100e-6;
  healthy.search_rate_hz = 10e6;
  const auto base = arch::simulate_refresh_interference(healthy);
  EXPECT_EQ(base.weak_refresh_ops, 0u);
  EXPECT_EQ(base.rows_excluded, 0);

  arch::RefreshSimConfig faulty = healthy;
  faulty.faults.weak_rows = {2, 3};
  faulty.faults.dead_rows = {5};
  const auto deg = arch::simulate_refresh_interference(faulty);
  // Weak rows get supplemental refreshes on the shortened period…
  EXPECT_GT(deg.weak_refresh_ops, 0u);
  // …and the dead row is dropped from the schedule (and its energy share).
  EXPECT_EQ(deg.rows_excluded, 1);
  EXPECT_GT(deg.refresh_ops, 0u);
  EXPECT_GT(base.refresh_energy, 0.0);

  arch::RefreshSimConfig row_healthy = healthy;
  row_healthy.policy = arch::RefreshPolicy::RowByRow;
  const auto row_base = arch::simulate_refresh_interference(row_healthy);
  arch::RefreshSimConfig row_faulty = faulty;
  row_faulty.policy = arch::RefreshPolicy::RowByRow;
  const auto row_deg = arch::simulate_refresh_interference(row_faulty);
  EXPECT_GT(row_deg.weak_refresh_ops, 0u);
  EXPECT_EQ(row_deg.rows_excluded, 1);
  // Dead-row exclusion removes base refreshes; weak rows add extras on a
  // shorter period, so the extras outnumber the weak rows' base schedule.
  EXPECT_LT(row_deg.refresh_ops - row_deg.weak_refresh_ops,
            row_base.refresh_ops);
  EXPECT_GT(row_deg.weak_refresh_ops, 2u * (row_base.refresh_ops / 16));
}

}  // namespace
