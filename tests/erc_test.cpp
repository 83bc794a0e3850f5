// ERC subsystem tests (ctest label: erc).
//
// Each seeded-defect case plants exactly one netlist bug and asserts the
// checker reports exactly the expected finding — right rule id, severity,
// and offending node/device names — before any Newton iteration runs.
// The clean-fixture cases run every TCAM row type through its real search
// path and assert the pre-simulation ERC pass comes back empty; the gate
// case asserts an ERC error stops a search before its transient.
#include <gtest/gtest.h>

#include <string>

#include "devices/Mosfet.h"
#include "devices/NemRelay.h"
#include "devices/Passive.h"
#include "devices/Sources.h"
#include "erc/Checker.h"
#include "erc/TcamRules.h"
#include "netlist/Netlist.h"
#include "spice/Newton.h"
#include "tcam/TcamRow.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::devices;
using core::TernaryWord;
using erc::Checker;
using erc::CheckerOptions;
using erc::Report;
using erc::Severity;
using spice::Circuit;
using spice::NodeId;

bool names_contain(const std::vector<std::string>& names,
                   const std::string& wanted) {
  for (const auto& n : names)
    if (n == wanted) return true;
  return false;
}

// --- Report mechanics -------------------------------------------------

TEST(ErcReport, CountsAndFormatting) {
  Report r;
  r.add({"connect.island", Severity::Error, "nodes a, b float", {"a", "b"},
         {}, "connect them"});
  r.add({"value.nonpositive-r", Severity::Warning, "R1 is zero", {}, {"R1"},
         ""});
  EXPECT_EQ(r.count(Severity::Error), 1u);
  EXPECT_EQ(r.count(Severity::Warning), 1u);
  EXPECT_TRUE(r.has_errors());
  EXPECT_EQ(r.by_rule("connect.island").size(), 1u);
  EXPECT_NE(r.to_string().find("error[connect.island]"), std::string::npos);
  EXPECT_NE(r.to_string().find("hint: connect them"), std::string::npos);
  EXPECT_NE(r.summary().find("1 error"), std::string::npos);
}

// --- Seeded connectivity defects --------------------------------------

// A storage node reachable only through capacitors: legal wiring, but no
// DC path — the classic "gmin quietly fixed my netlist" bug.
TEST(ErcConnectivity, FloatingNodeHasNoDcPath) {
  const auto deck = spice::parse_netlist(
      "* cap-coupled floating node\n"
      "V1 in 0 1\n"
      "R1 in 0 1k\n"
      "C1 in mid 1n\n"
      "C2 mid 0 1n\n"
      ".op\n"
      ".end\n");
  const Report rep = Checker().run(*deck.circuit);
  ASSERT_EQ(rep.findings().size(), 1u);
  const auto& f = rep.findings().front();
  EXPECT_EQ(f.rule, "connect.no-dc-path");
  EXPECT_EQ(f.severity, Severity::Error);
  EXPECT_TRUE(names_contain(f.nodes, "mid"));
}

// A relay whose gate lands on a node nothing else touches.
TEST(ErcConnectivity, DanglingRelayTerminal) {
  Circuit c;
  const NodeId out = c.node("out");
  const NodeId floatg = c.node("floatg");
  c.add<VSource>("V1", out, c.ground(), 1.0);
  c.add<NemRelay>("N1", out, floatg, c.ground(), c.ground());
  const Report rep = Checker().run(c);
  ASSERT_EQ(rep.findings().size(), 1u);
  const auto& f = rep.findings().front();
  EXPECT_EQ(f.rule, "connect.dangling");
  EXPECT_EQ(f.severity, Severity::Error);
  EXPECT_TRUE(names_contain(f.nodes, "floatg"));
  EXPECT_TRUE(names_contain(f.devices, "N1"));
}

// A capacitor floating off on its own: one island finding, not a storm of
// per-node dangling/no-dc-path findings.
TEST(ErcConnectivity, CapOnlyIslandIsOneFinding) {
  const auto deck = spice::parse_netlist(
      "* cap island beside a working divider\n"
      "V1 in 0 1\n"
      "R1 in out 1k\n"
      "R2 out 0 1k\n"
      "C1 isla islb 1n\n"
      ".op\n"
      ".end\n");
  const Report rep = Checker().run(*deck.circuit);
  ASSERT_EQ(rep.findings().size(), 1u);
  const auto& f = rep.findings().front();
  EXPECT_EQ(f.rule, "connect.island");
  EXPECT_EQ(f.severity, Severity::Error);
  EXPECT_TRUE(names_contain(f.nodes, "isla"));
  EXPECT_TRUE(names_contain(f.nodes, "islb"));
  EXPECT_TRUE(names_contain(f.devices, "C1"));
}

// --- Seeded value defects ---------------------------------------------

TEST(ErcValues, HysteresisInversionIsCaught) {
  Circuit c;
  const NodeId d = c.node("d");
  const NodeId g = c.node("g");
  c.add<VSource>("V1", d, c.ground(), 1.0);
  c.add<VSource>("V2", g, c.ground(), 0.0);
  NemRelayParams p;
  p.v_po = 0.6;  // above v_pi = 0.53: the window is inverted
  c.add<NemRelay>("N1", d, g, c.ground(), c.ground(), p);
  const Report rep = Checker().run(c);
  ASSERT_EQ(rep.findings().size(), 1u);
  const auto& f = rep.findings().front();
  EXPECT_EQ(f.rule, "value.hysteresis-inverted");
  EXPECT_EQ(f.severity, Severity::Error);
  EXPECT_TRUE(names_contain(f.devices, "N1"));
}

TEST(ErcValues, NonPositiveResistanceIsCaught) {
  Circuit c;
  const NodeId in = c.node("in");
  c.add<VSource>("V1", in, c.ground(), 1.0);
  c.add<Resistor>("R1", in, c.ground(), -5.0);
  const Report rep = Checker().run(c);
  ASSERT_EQ(rep.by_rule("value.nonpositive-r").size(), 1u);
  EXPECT_TRUE(
      names_contain(rep.by_rule("value.nonpositive-r").front()->devices,
                    "R1"));
}

// --- TCAM design rules -------------------------------------------------

namespace tcam_rules {

// Builds a minimal complementary pair, wired clean and named as a one-row
// template names cell 0's relays, with the checker restricted to the
// registered rule so the assertion sees it in isolation.
struct PairFixture {
  Circuit c;
  NemRelay* n1;
  NemRelay* n2;
  PairFixture() {
    const NodeId stg = c.node("stg");
    n1 = &c.add<NemRelay>("Xcell0.N1", c.ground(), stg, c.ground(),
                          c.ground());
    n2 = &c.add<NemRelay>("Xcell0.N2", c.ground(), stg, c.ground(),
                          c.ground());
  }
  Report run(const TernaryWord& word) {
    Checker ck(CheckerOptions{false, false, false});
    ck.add_rule(erc::nem_pair_rule(
        word,
        [](std::size_t col) { return "Xcell" + std::to_string(col) + ".N1"; },
        [](std::size_t col) { return "Xcell" + std::to_string(col) + ".N2"; }));
    return ck.run(c);
  }
};

TEST(ErcTcamRules, StoredXMustBeOffOff) {
  PairFixture fx;
  fx.n1->set_state(true);  // X must be (open, open); this is (closed, open)
  const Report rep = fx.run(TernaryWord("X"));
  ASSERT_EQ(rep.findings().size(), 1u);
  const auto& f = rep.findings().front();
  EXPECT_EQ(f.rule, "tcam.x-encoding");
  EXPECT_EQ(f.severity, Severity::Error);
  EXPECT_TRUE(names_contain(f.devices, "Xcell0.N1"));
}

TEST(ErcTcamRules, PairInconsistentWithStoredBit) {
  PairFixture fx;  // stored One wants (closed, open); both are open
  const Report rep = fx.run(TernaryWord("1"));
  ASSERT_EQ(rep.findings().size(), 1u);
  EXPECT_EQ(rep.findings().front().rule, "tcam.relay-pair");
}

TEST(ErcTcamRules, ConsistentPairIsClean) {
  PairFixture fx;
  fx.n1->set_state(true);
  const Report rep = fx.run(TernaryWord("1"));
  EXPECT_TRUE(rep.empty()) << rep.to_string();
}

TEST(ErcTcamRules, StuckRelayIsNotANetlistBug) {
  PairFixture fx;
  fx.n1->force_stuck(true);  // injected fault holds N1 closed on a stored X
  const Report rep = fx.run(TernaryWord("X"));
  EXPECT_TRUE(rep.empty()) << rep.to_string();
}

TEST(ErcTcamRules, RefreshLevelOutsideWindow) {
  PairFixture fx;
  Checker ck(CheckerOptions{false, false, false});
  // Default relay window is (0.13 V, 0.53 V): 0.05 V would drop every
  // closed relay out during a one-shot refresh.
  ck.add_rule(erc::relay_refresh_window_rule(0.05));
  const Report rep = ck.run(fx.c);
  ASSERT_EQ(rep.findings().size(), 2u);  // both relays of the pair
  EXPECT_EQ(rep.findings().front().rule, "tcam.refresh-window");
  EXPECT_EQ(rep.findings().front().severity, Severity::Error);
}

TEST(ErcTcamRules, RefreshLevelInsideWindowIsClean) {
  PairFixture fx;
  Checker ck(CheckerOptions{false, false, false});
  ck.add_rule(erc::relay_refresh_window_rule(0.5));
  EXPECT_TRUE(ck.run(fx.c).empty());
}

TEST(ErcTcamRules, MlPrechargeReachability) {
  Circuit c;
  const NodeId ml = c.node("ml");
  const NodeId vdd = c.node("vdd");
  c.add<VSource>("Vdd", vdd, c.ground(), 1.0);
  c.add<Capacitor>("Cml", ml, c.ground(), 1e-15);  // no conductive path
  Checker ck(CheckerOptions{false, false, false});
  ck.add_rule(erc::ml_precharge_rule(ml, vdd));
  const Report rep = ck.run(c);
  ASSERT_EQ(rep.findings().size(), 1u);
  EXPECT_EQ(rep.findings().front().rule, "tcam.ml-precharge");

  // Adding the precharge device clears the finding.
  c.add<Mosfet>("Mpchg", ml, c.ground(), vdd, MosfetParams::pmos_lp(1.0));
  EXPECT_TRUE(ck.run(c).empty());
}

TEST(ErcTcamRules, MlFaninCountsDischargeDevices) {
  Circuit c;
  const NodeId ml = c.node("ml");
  const NodeId vdd = c.node("vdd");
  const NodeId g = c.node("g");
  c.add<VSource>("Vdd", vdd, c.ground(), 1.0);
  c.add<VSource>("Vg", g, c.ground(), 0.0);
  c.add<Mosfet>("Mpchg", ml, g, vdd, MosfetParams::pmos_lp(1.0));
  c.add<Mosfet>("Ts_0", ml, g, c.ground(), MosfetParams::nmos_lp(1.0));
  c.add<Mosfet>("Ts_1", ml, g, c.ground(), MosfetParams::nmos_lp(1.0));

  Checker match(CheckerOptions{false, false, false});
  match.add_rule(erc::ml_fanin_rule(ml, vdd, 2));
  EXPECT_TRUE(match.run(c).empty());

  Checker mismatch(CheckerOptions{false, false, false});
  mismatch.add_rule(erc::ml_fanin_rule(ml, vdd, 3));
  const Report rep = mismatch.run(c);
  ASSERT_EQ(rep.findings().size(), 1u);
  EXPECT_EQ(rep.findings().front().rule, "tcam.ml-fanin");
  EXPECT_EQ(rep.findings().front().severity, Severity::Warning);
}

}  // namespace tcam_rules

// --- Structural-rank pass and solver attribution ----------------------

TEST(ErcStructure, CleanCircuitHasFullStructuralRank) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId out = c.node("out");
  c.add<VSource>("V1", in, c.ground(), 1.0);
  c.add<Resistor>("R1", in, out, 1e3);
  c.add<Resistor>("R2", out, c.ground(), 1e3);
  EXPECT_TRUE(spice::structural_singularity_report(c).empty());
  EXPECT_TRUE(Checker().run(c).empty());
}

TEST(ErcStructure, DcOperatingPointNamesStructurallySingularNode) {
  Circuit c;
  const NodeId in = c.node("in");
  const NodeId sense = c.node("sense");
  c.add<VSource>("V1", in, c.ground(), 1.0);
  c.add<Capacitor>("C1", in, sense, 1e-9);
  c.add<Capacitor>("C2", sense, c.ground(), 1e-9);

  // Without the gmin crutch the factorization is singular; the failure
  // must name the offending node instead of a bare solver error.
  spice::DcOptions opts;
  opts.gmin_ladder = {0.0};
  opts.recover = false;
  const auto dc = dc_operating_point(c, opts);
  EXPECT_FALSE(dc.converged);
  EXPECT_NE(dc.singular_detail.find("sense"), std::string::npos)
      << dc.singular_detail;
}

// --- Clean fixtures: every row type's real search path ----------------

class AllRowKinds : public ::testing::TestWithParam<tcam::TcamKind> {};

INSTANTIATE_TEST_SUITE_P(
    Erc, AllRowKinds,
    ::testing::Values(tcam::TcamKind::Sram16T, tcam::TcamKind::Nem3T2N,
                      tcam::TcamKind::Rram2T2R, tcam::TcamKind::Fefet2F,
                      tcam::TcamKind::Dtcam5T, tcam::TcamKind::Fefet4T2F,
                      tcam::TcamKind::Mram4T2M),
    [](const auto& param_info) {
      switch (param_info.param) {
        case tcam::TcamKind::Sram16T: return "Sram16T";
        case tcam::TcamKind::Nem3T2N: return "Nem3T2N";
        case tcam::TcamKind::Rram2T2R: return "Rram2T2R";
        case tcam::TcamKind::Fefet2F: return "Fefet2F";
        case tcam::TcamKind::Dtcam5T: return "Dtcam5T";
        case tcam::TcamKind::Fefet4T2F: return "Fefet4T2F";
        case tcam::TcamKind::Mram4T2M: return "Mram4T2M";
      }
      return "unknown";
    });

TEST_P(AllRowKinds, SearchFixturePassesErcClean) {
  auto row = tcam::make_row(GetParam(), 8, 16);
  const TernaryWord word("10X10X10");
  row->store(word);
  const tcam::SearchMetrics m = row->search(word);
  ASSERT_TRUE(m.ok) << m.note;
  EXPECT_EQ(m.erc_errors, 0u);
  EXPECT_EQ(m.erc_warnings, 0u);
}

// The ERC gate runs on every template search: a refresh level below V_PO
// (tcam.refresh-window, an error) stops the search that builds the
// template and a rebound replay of it before any Newton iteration.
TEST(ErcGate, ErrorStopsTemplateSearchBeforeTransient) {
  tcam::Calibration cal = tcam::Calibration::standard();
  cal.v_refresh = 0.05;  // below V_PO: a refresh would drop every relay out
  auto row = tcam::make_row(tcam::TcamKind::Nem3T2N, 8, 16, cal);
  row->store(TernaryWord("10X10X10"));
  for (const char* key : {"10110010", "00110010"}) {
    SCOPED_TRACE(key);
    const tcam::SearchMetrics m = row->search(TernaryWord(key));
    EXPECT_FALSE(m.ok);
    EXPECT_GT(m.erc_errors, 0u);
    EXPECT_EQ(m.steps, 0u);
    EXPECT_EQ(m.newton_iters, 0u);
    EXPECT_NE(m.note.find("tcam.refresh-window"), std::string::npos)
        << m.note;
  }
}

}  // namespace
