// STA subsystem tests (ctest label: sta).
//
// Three layers, mirroring the ERC test philosophy:
//  - RcGraph math against closed-form RC networks: the exact nodal solve
//    (degree-<=2 elimination plus sparse LU on what survives), Thevenin
//    equivalents, and Elmore moments must match hand-computed values to
//    solver precision, not "roughly";
//  - seeded-defect goldens: each case plants exactly one quantitative
//    margin defect in a real row template and asserts the margin_rules
//    pass reports the right sta.* rule id at the right severity — and
//    that the matching clean fixture stays silent on that rule;
//  - bound bracketing: for every row kind, one matched and one one-bit
//    mismatched search at reduced width, fresh and aged in place, must
//    land the measured transient delay and energy inside the static
//    bounds computed over the searched circuit (the full-width version of
//    this contract is bench_sta's gate; this is the fast regression).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "devices/NemRelay.h"
#include "devices/Passive.h"
#include "devices/Sources.h"
#include "erc/Checker.h"
#include "lifetime/Degradation.h"
#include "sta/RcGraph.h"
#include "sta/Rules.h"
#include "sta/Sta.h"
#include "tcam/ArrayTemplate.h"
#include "tcam/RowSpecs.h"
#include "tcam/SearchTemplate.h"
#include "tcam/StaBridge.h"

namespace {

using namespace nemtcam;
using devices::Capacitor;
using devices::NemRelay;
using devices::Resistor;
using devices::VSource;
using erc::Severity;
using spice::Circuit;
using spice::NodeId;

// GCC 12's -Wrestrict misfires on inlined `"lit" + std::to_string(i)`
// concatenations at -O2 (GCC PR 105329); building names by append keeps
// the -Werror lint build clean.
std::string idx_name(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

// --- RcGraph against closed-form networks -----------------------------

// A resistive divider has an exact DC level; the switch-level solve is a
// true nodal solve, so it must hit it to solver precision.
TEST(RcGraphExact, DividerLevelIsExact) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId mid = c.node("mid");
  c.add<VSource>("V1", in, c.ground(), 1.0);
  c.add<Resistor>("R1", in, mid, 1.0e3);
  c.add<Resistor>("R2", mid, c.ground(), 3.0e3);
  sta::RcGraph g(c);
  const sta::LevelSolution s = g.solve(/*use_final=*/false);
  EXPECT_NEAR(s.v[static_cast<std::size_t>(mid)], 0.75, 1e-9);
}

// A 10-stage series ladder collapses entirely in the degree-<=2
// elimination; the Thevenin resistance at the far end is the plain sum.
TEST(RcGraphExact, LadderTheveninIsSeriesSum) {
  Circuit c;
  std::vector<NodeId> n{c.node("n0")};
  c.add<VSource>("V1", n[0], c.ground(), 1.0);
  for (int i = 1; i <= 10; ++i) {
    n.push_back(c.node(idx_name("n", i)));
    c.add<Resistor>(idx_name("R", i), n[static_cast<std::size_t>(i - 1)],
                    n[static_cast<std::size_t>(i)], 1.0e3);
  }
  sta::RcGraph g(c);
  const sta::LevelSolution s = g.solve(false);
  EXPECT_NEAR(g.thevenin_r(n[10], s), 10.0e3, 1e-6);
  EXPECT_NEAR(g.thevenin_r(n[5], s), 5.0e3, 1e-6);
}

// A fully connected K4 of equal resistors never drops to degree 2, so it
// exercises the sparse-LU leg. Two-terminal resistance across K4 of R is
// R/2; all injected current must then leave through the single pin tie.
TEST(RcGraphExact, MeshHubGoesThroughLuExactly) {
  Circuit c;
  const NodeId p = c.node("p");
  const NodeId a = c.node("a");
  const NodeId b = c.node("b");
  const NodeId d = c.node("d");
  const NodeId e = c.node("e");
  c.add<VSource>("V1", p, c.ground(), 1.0);
  c.add<Resistor>("Rp", p, a, 1.0e3);
  int k = 0;
  const NodeId quad[4] = {a, b, d, e};
  for (int i = 0; i < 4; ++i)
    for (int j = i + 1; j < 4; ++j)
      c.add<Resistor>(idx_name("Rm", k++), quad[i], quad[j], 1.0e3);
  sta::RcGraph g(c);
  const sta::LevelSolution s = g.solve(false);
  // From any non-tied K4 corner: R_K4 = 500 in series with the 1k tie.
  EXPECT_NEAR(g.thevenin_r(b, s), 1.5e3, 1e-6);
  EXPECT_NEAR(g.thevenin_r(a, s), 1.0e3, 1e-6);
}

// Uniform RC ladder: the worst-sink first moment has the textbook closed
// form m1 = C·(N·R_drv + R·ΣN) and the total load is N·C.
TEST(RcGraphExact, ElmoreLadderMatchesClosedForm) {
  Circuit c;
  std::vector<NodeId> n{c.node("n0")};
  c.add<VSource>("V1", n[0], c.ground(), 1.0, /*series_ohms=*/100.0);
  constexpr int kN = 4;
  constexpr double kR = 1.0e3, kC = 1.0e-12;
  for (int i = 1; i <= kN; ++i) {
    n.push_back(c.node(idx_name("n", i)));
    c.add<Resistor>(idx_name("R", i), n[static_cast<std::size_t>(i - 1)],
                    n[static_cast<std::size_t>(i)], kR);
    c.add<Capacitor>(idx_name("C", i), n[static_cast<std::size_t>(i)],
                     c.ground(), kC);
  }
  sta::RcGraph g(c);
  const sta::LevelSolution s = g.solve(false);
  ASSERT_EQ(g.pins().size(), 1u);
  const sta::RcGraph::Elmore el = g.elmore_from(g.pins()[0], s);
  EXPECT_NEAR(el.c_total, kN * kC, kN * kC * 1e-9);
  // m1(far) = Σ_i C·(R_drv + i·R) = C·(4·100 + (1+2+3+4)·1k).
  EXPECT_NEAR(el.m1, kC * (kN * 100.0 + 10.0 * kR), 1e-20);
  EXPECT_EQ(el.far_node, n[kN]);
  EXPECT_EQ(el.n_nodes, kN + 1);
}

// --- Seeded margin defects through the Checker ------------------------

core::TernaryWord all_ones(int width) {
  core::TernaryWord w(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i)
    w[static_cast<std::size_t>(i)] = core::Ternary::One;
  return w;
}

// Builds the 3T2N row template for `cal`, binds an all-ones matched
// search, and runs ONLY the STA margin rules over the elaborated circuit.
erc::Report margin_report(const tcam::Calibration& cal, int width,
                          double refresh_period = -1.0) {
  tcam::SearchTemplate tpl(tcam::nem3t2n_search_spec(cal), width, 64);
  const core::TernaryWord word = all_ones(width);
  tpl.ensure_built(word, word);
  const double strobe = tpl.default_strobe();
  sta::StaOptions opt = tcam::sta_options_for(cal, strobe);
  opt.refresh_period = refresh_period;
  erc::Checker checker;
  checker.add_rule(sta::margin_rules({"ml"}, opt));
  return checker.run(*tpl.circuit());
}

// An undersized precharge PMOS leaves the matched ML barely above the
// comparator threshold at the strobe: sense amp deciding a coin flip.
TEST(StaSeededDefect, UndersizedPrechargeFlagsSenseMargin) {
  tcam::Calibration cal;
  cal.w_precharge = 0.5;  // nominal 16: the 0.5 ns window can't charge ML
  const erc::Report rep = margin_report(cal, 16);
  const auto hits = rep.by_rule("sta.sense-margin");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->severity, Severity::Warning);
  ASSERT_EQ(hits[0]->nodes.size(), 1u);
  EXPECT_EQ(hits[0]->nodes[0], "ml");
}

TEST(StaSeededDefect, NominalPrechargeIsClean) {
  const erc::Report rep = margin_report(tcam::Calibration{}, 16);
  EXPECT_TRUE(rep.by_rule("sta.sense-margin").empty());
  EXPECT_TRUE(rep.by_rule("sta.sl-ladder-delay").empty());
}

// A feeble line driver (200x the nominal 500 ohm buffer) pushes the
// searchline settle bound past the sense strobe: the compare gates see a
// stale key when the ML is sampled.
TEST(StaSeededDefect, SlowSearchlineDriverFlagsSettleBound) {
  tcam::Calibration cal;
  cal.r_line_driver = 500.0 * 200.0;
  const erc::Report rep = margin_report(cal, 16);
  const auto hits = rep.by_rule("sta.sl-ladder-delay");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0]->severity, Severity::Warning);
  EXPECT_FALSE(hits[0]->devices.empty());
}

// The array fixture models the shared searchlines as real segmented RC
// ladders; an over-resistive wire recipe makes those ladders settle
// past the strobe, and the rule names the offending line and driver.
TEST(StaSeededDefect, OverlongArraySlLadderFlagsSettleBound) {
  tcam::Calibration cal;
  cal.r_wire_per_m = 2.0e6 * 20000.0;
  tcam::ArrayTemplate arr(tcam::nem3t2n_search_spec(cal), /*rows=*/4,
                          /*width=*/8);
  const core::TernaryWord word = all_ones(8);
  for (int r = 0; r < arr.rows(); ++r) arr.store(r, word);
  ASSERT_TRUE(arr.search(word).ok);
  erc::Checker checker;
  checker.add_rule(
      sta::margin_rules({}, tcam::sta_options_for(cal, arr.default_strobe())));
  const erc::Report rep = checker.run(arr.fixture()->circuit());
  const auto hits = rep.by_rule("sta.sl-ladder-delay");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0]->severity, Severity::Warning);
  EXPECT_FALSE(hits[0]->devices.empty());
}

// A leaky relay gate dielectric collapses the storage-node retention
// below 2x the scheduled 10 us refresh period: data loss, hence an
// Error. The relays declare their hold terminals only once a search has
// committed mechanical state, so one binding search runs first.
TEST(StaSeededDefect, LeakyRelayFlagsRefreshWindow) {
  tcam::Calibration cal;
  tcam::SearchTemplate tpl(tcam::nem3t2n_search_spec(cal), 16, 64);
  const core::TernaryWord word = all_ones(16);
  const double strobe = tpl.default_strobe();
  ASSERT_TRUE(tpl.search(word, word, strobe).ok);
  int relays = 0;
  for (const auto& dev : tpl.circuit()->devices())
    if (auto* relay = dynamic_cast<NemRelay*>(dev.get())) {
      relay->set_gate_leakage(1.0e-9);
      ++relays;
    }
  ASSERT_GT(relays, 0);
  sta::StaOptions opt = tcam::sta_options_for(cal, strobe);
  opt.refresh_period = 10.0e-6;
  erc::Checker checker;
  checker.add_rule(sta::margin_rules({"ml"}, opt));
  const erc::Report rep = checker.run(*tpl.circuit());
  const auto hits = rep.by_rule("sta.refresh-window");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0]->severity, Severity::Error);
  EXPECT_TRUE(rep.has_errors());
}

// Healthy relays retain for tens of microseconds: a 1 us refresh cadence
// clears the 2x safety factor, and the rule stays silent even with the
// hold terminals live after a binding search.
TEST(StaSeededDefect, HealthyRelaysMeetRefreshSchedule) {
  tcam::Calibration cal;
  tcam::SearchTemplate tpl(tcam::nem3t2n_search_spec(cal), 16, 64);
  const core::TernaryWord word = all_ones(16);
  const double strobe = tpl.default_strobe();
  ASSERT_TRUE(tpl.search(word, word, strobe).ok);
  sta::StaOptions opt = tcam::sta_options_for(cal, strobe);
  opt.refresh_period = 1.0e-6;
  erc::Checker checker;
  checker.add_rule(sta::margin_rules({"ml"}, opt));
  const erc::Report rep = checker.run(*tpl.circuit());
  EXPECT_TRUE(rep.by_rule("sta.refresh-window").empty());
}

// --- Bound bracketing across every row kind ---------------------------

class StaBracketing : public ::testing::TestWithParam<tcam::TcamKind> {};

constexpr int kBracketWidth = 16;

// The static bounds of the row's matchline, from an STA pass over the
// circuit the last search left.
tcam::StaSummary bounds_after(tcam::SearchTemplate& tpl, double strobe) {
  return tcam::sta_summary_from(
      sta::analyze(*tpl.circuit(), {"ml"},
                   tcam::sta_options_for(tpl.spec().cal, strobe)),
      "ml");
}

// A matched search must leave a positive static margin, a one-bit miss
// must cross inside [t_lo, t_hi], and both energies must sit in
// [e_lo, e_hi].
void expect_bracketed(tcam::SearchTemplate& tpl) {
  const core::TernaryWord stored = all_ones(kBracketWidth);
  core::TernaryWord miss = stored;
  miss[0] = core::Ternary::Zero;
  const double strobe = tpl.default_strobe();

  const tcam::SearchMetrics hit = tpl.search(stored, stored, strobe);
  ASSERT_TRUE(hit.ok) << hit.note;
  const tcam::StaSummary hit_sta = bounds_after(tpl, strobe);
  ASSERT_TRUE(hit_sta.valid);
  EXPECT_TRUE(hit.matched);
  EXPECT_GT(hit_sta.margin, 0.0);
  EXPECT_GE(hit.energy, hit_sta.e_lo);
  EXPECT_LE(hit.energy, hit_sta.e_hi);

  const tcam::SearchMetrics mm = tpl.search(miss, stored, strobe);
  ASSERT_TRUE(mm.ok) << mm.note;
  const tcam::StaSummary mm_sta = bounds_after(tpl, strobe);
  ASSERT_TRUE(mm_sta.valid);
  EXPECT_FALSE(mm.matched);
  ASSERT_GT(mm.latency, 0.0);
  EXPECT_LE(mm_sta.t_lo, mm.latency);
  EXPECT_GE(mm_sta.t_hi, mm.latency);
  EXPECT_LT(mm_sta.t_lo, mm_sta.t_hi);
  EXPECT_GE(mm.energy, mm_sta.e_lo);
  EXPECT_LE(mm.energy, mm_sta.e_hi);
}

TEST_P(StaBracketing, TransientDelayAndEnergyInsideStaticBounds) {
  tcam::SearchTemplate tpl(
      tcam::search_spec_for(GetParam(), tcam::Calibration{}), kBracketWidth,
      64);
  expect_bracketed(tpl);
}

// Aging moves the bounds (the SRAM miss band's top grows with wear), so
// they are recomputed over the aged circuit. Wear 0.1 is the level every
// kind still searches correctly at; by 0.5 the 3T2N search fails and the
// 2T2R one-bit miss reads as a match, which is wear-out (the lifetime
// engine's FunctionalDead), not a question for the bounds.
TEST_P(StaBracketing, AgedRowInsideRecomputedStaticBounds) {
  tcam::SearchTemplate tpl(
      tcam::search_spec_for(GetParam(), tcam::Calibration{}), kBracketWidth,
      64);
  const core::TernaryWord stored = all_ones(kBracketWidth);
  tpl.ensure_built(stored, stored);
  lifetime::Degradation().apply_to_circuit(*tpl.circuit(), /*w=*/0.1,
                                           /*w_prev=*/0.0);
  expect_bracketed(tpl);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, StaBracketing,
    ::testing::Values(tcam::TcamKind::Sram16T, tcam::TcamKind::Nem3T2N,
                      tcam::TcamKind::Rram2T2R, tcam::TcamKind::Fefet2F,
                      tcam::TcamKind::Dtcam5T, tcam::TcamKind::Fefet4T2F,
                      tcam::TcamKind::Mram4T2M),
    [](const ::testing::TestParamInfo<tcam::TcamKind>& param_info) {
      std::string n = tcam::kind_name(param_info.param);
      std::string out;
      for (const char ch : n)
        if (std::isalnum(static_cast<unsigned char>(ch)))
          out.push_back(ch);
      return out;
    });

}  // namespace
