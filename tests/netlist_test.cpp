#include <gtest/gtest.h>

#include "netlist/Netlist.h"
#include "spice/Newton.h"
#include "spice/Transient.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::spice;

TEST(SpiceNumber, PlainAndSuffixed) {
  EXPECT_DOUBLE_EQ(parse_spice_number("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_spice_number("-3"), -3.0);
  EXPECT_DOUBLE_EQ(parse_spice_number("1k"), 1e3);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5n"), 2.5e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("100meg"), 1e8);
  EXPECT_DOUBLE_EQ(parse_spice_number("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(parse_spice_number("20a"), 2e-17);
  EXPECT_DOUBLE_EQ(parse_spice_number("100f"), 1e-13);
  EXPECT_DOUBLE_EQ(parse_spice_number("1.2u"), 1.2e-6);
  EXPECT_DOUBLE_EQ(parse_spice_number("4p"), 4e-12);
  EXPECT_DOUBLE_EQ(parse_spice_number("2g"), 2e9);
  EXPECT_DOUBLE_EQ(parse_spice_number("1t"), 1e12);
}

TEST(SpiceNumber, UnitLettersAfterSuffix) {
  EXPECT_DOUBLE_EQ(parse_spice_number("1kohm"), 1e3);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.2nF"), 2.2e-9);
  EXPECT_DOUBLE_EQ(parse_spice_number("5V"), 5.0);
}

TEST(SpiceNumber, RejectsGarbage) {
  EXPECT_THROW(parse_spice_number("abc"), NetlistError);
  EXPECT_THROW(parse_spice_number(""), NetlistError);
  EXPECT_THROW(parse_spice_number("1.2.3"), NetlistError);
}

TEST(SpiceNumber, CaseBlindMilliVsMeg) {
  // Classic SPICE trap: suffixes are case-blind, so "1M" is one milli,
  // NOT one mega. Only the spelled-out "meg" means 1e6.
  EXPECT_DOUBLE_EQ(parse_spice_number("1M"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_spice_number("1m"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_spice_number("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(parse_spice_number("1MEG"), 1e6);
  EXPECT_DOUBLE_EQ(parse_spice_number("1Meg"), 1e6);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.5MEGohm"), 2.5e6);
}

TEST(SpiceNumber, RejectsTrailingGarbageAfterSuffix) {
  // Digits after a scale suffix are ambiguous ("1k5" could be the European
  // 1.5k) — reject rather than guess. Pure unit letters stay tolerated.
  EXPECT_THROW(parse_spice_number("1k5"), NetlistError);
  EXPECT_THROW(parse_spice_number("1.5meg2"), NetlistError);
  EXPECT_THROW(parse_spice_number("3n2F"), NetlistError);
  EXPECT_THROW(parse_spice_number("2.2nF!"), NetlistError);
  EXPECT_DOUBLE_EQ(parse_spice_number("2.2nF"), 2.2e-9);
}

TEST(Netlist, BadNumberErrorsCarryLineNumbers) {
  try {
    parse_netlist("t\nR1 a 0 1k\nC1 a 0 1k5\n.end\n");
    FAIL() << "should have thrown";
  } catch (const NetlistError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(Netlist, PrintOfUnknownNodeIsAnError) {
  try {
    parse_netlist(
        "t\n"
        "V1 vin 0 1\n"
        "R1 vin out 1k\n"
        ".op\n"
        ".print v(out) v(typo)\n"
        ".end\n");
    FAIL() << "should have thrown";
  } catch (const NetlistError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
    EXPECT_NE(what.find("typo"), std::string::npos) << what;
  }
}

TEST(Netlist, TitleAndComments) {
  const auto deck = parse_netlist(
      "my title line\n"
      "* a comment\n"
      "R1 a 0 1k ; trailing comment\n"
      ".end\n");
  EXPECT_EQ(deck.title, "my title line");
  EXPECT_EQ(deck.circuit->devices().size(), 1u);
}

TEST(Netlist, VoltageDividerOp) {
  const auto deck = parse_netlist(
      "divider\n"
      "V1 vin 0 2.0\n"
      "R1 vin mid 1k\n"
      "R2 mid 0 1k\n"
      ".op\n"
      ".print v(mid)\n"
      ".end\n");
  ASSERT_EQ(deck.analysis.kind, ParsedAnalysis::Kind::Op);
  ASSERT_EQ(deck.print_nodes.size(), 1u);
  EXPECT_EQ(deck.print_nodes[0], "mid");
  const auto dc = dc_operating_point(*deck.circuit);
  ASSERT_TRUE(dc.converged);
  const NodeId mid = deck.circuit->node("mid");
  EXPECT_NEAR(dc.v[static_cast<std::size_t>(mid - 1)], 1.0, 1e-9);
}

TEST(Netlist, PulseSourceAndTran) {
  const auto deck = parse_netlist(
      "rc\n"
      "V1 in 0 PULSE(0 1 1n 0.1n 0.1n 5n)\n"
      "R1 in out 1k\n"
      "C1 out 0 1p\n"
      ".tran 10p 8n\n"
      ".end\n");
  ASSERT_EQ(deck.analysis.kind, ParsedAnalysis::Kind::Tran);
  EXPECT_DOUBLE_EQ(deck.analysis.tran_dt_max, 10e-12);
  EXPECT_DOUBLE_EQ(deck.analysis.tran_t_end, 8e-9);
  TransientOptions opts;
  opts.t_end = deck.analysis.tran_t_end;
  opts.dt_max = deck.analysis.tran_dt_max;
  const auto res = run_transient(*deck.circuit, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  const Trace out = res.node_trace(deck.circuit->node("out"));
  EXPECT_GT(out.at(6e-9), 0.98);
}

TEST(Netlist, CommaSeparatedWaveArgs) {
  const auto deck = parse_netlist(
      "commas\n"
      "V1 in 0 PWL(0,0 1n,1 2n,0.5)\n"
      "R1 in 0 1k\n"
      ".end\n");
  EXPECT_EQ(deck.circuit->devices().size(), 2u);
}

TEST(Netlist, IcDirective) {
  const auto deck = parse_netlist(
      "ic\n"
      "C1 a 0 1p\n"
      "R1 a 0 1k\n"
      ".ic v(a)=0.7\n"
      ".end\n");
  const auto v0 = deck.circuit->initial_state();
  const NodeId a = deck.circuit->node("a");
  EXPECT_DOUBLE_EQ(v0[static_cast<std::size_t>(a - 1)], 0.7);
}

TEST(Netlist, MosfetInverter) {
  const auto deck = parse_netlist(
      "inverter\n"
      "V1 vdd 0 1\n"
      "V2 in 0 0\n"
      "M1 out in vdd PMOS w=1.4\n"
      "M2 out in 0 NMOS\n"
      ".op\n"
      ".end\n");
  const auto dc = dc_operating_point(*deck.circuit);
  ASSERT_TRUE(dc.converged);
  const NodeId out = deck.circuit->node("out");
  EXPECT_NEAR(dc.v[static_cast<std::size_t>(out - 1)], 1.0, 0.03);
}

TEST(Netlist, NemRelayElement) {
  const auto deck = parse_netlist(
      "relay\n"
      "V1 g 0 1\n"
      "V2 d 0 0.5\n"
      "R1 s 0 10k\n"
      "N1 d g s 0 vpi=0.53 taumech=2n\n"
      ".tran 20p 5n\n"
      ".end\n");
  TransientOptions opts;
  opts.t_end = 5e-9;
  opts.dt_max = 20e-12;
  const auto res = run_transient(*deck.circuit, opts);
  ASSERT_TRUE(res.finished) << res.failure;
  // Relay pulls in (gate above V_PI from t=0) and passes the drain level.
  EXPECT_NEAR(res.node_trace(deck.circuit->node("s")).back(),
              0.5 * 10.0 / 11.0, 0.02);
}

TEST(Netlist, RramAndFefetElements) {
  const auto deck = parse_netlist(
      "nvm\n"
      "V1 a 0 0.2\n"
      "Z1 a 0 state=1\n"
      "V2 g 0 1\n"
      "Q1 d g 0 low\n"
      "R1 d 0 1k\n"
      ".op\n"
      ".end\n");
  const auto dc = dc_operating_point(*deck.circuit);
  ASSERT_TRUE(dc.converged);
  // LRS RRAM at 0.2 V draws 10 µA through V1.
  EXPECT_EQ(deck.circuit->devices().size(), 5u);
}

TEST(Netlist, ControlledSources) {
  const auto deck = parse_netlist(
      "controlled\n"
      "V1 in 0 1\n"
      "R1 in 0 1k\n"
      "E1 e_out 0 in 0 3\n"
      "Rl e_out 0 1k\n"
      "F1 f_out 0 V1 2\n"
      "Rf f_out 0 1k\n"
      ".op\n"
      ".end\n");
  const auto dc = dc_operating_point(*deck.circuit);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.v[static_cast<std::size_t>(deck.circuit->node("e_out") - 1)],
              3.0, 1e-9);
  // i(V1) = −1 mA; F gain 2 injects −2 mA into f_out ⇒ +2 V across 1 kΩ.
  EXPECT_NEAR(dc.v[static_cast<std::size_t>(deck.circuit->node("f_out") - 1)],
              2.0, 1e-9);
}

TEST(Netlist, ErrorsCarryLineNumbers) {
  try {
    parse_netlist("title\nR1 a 0\n.end\n");
    FAIL() << "should have thrown";
  } catch (const NetlistError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parse_netlist("t\nW1 a 0 1k\n.end\n"), NetlistError);
  EXPECT_THROW(parse_netlist("t\n.bogus\n.end\n"), NetlistError);
  EXPECT_THROW(parse_netlist("t\nF1 a 0 R9 2\nR9 a 0 1k\n.end\n"),
               NetlistError);
}

TEST(Netlist, RejectsUnconsumedTokens) {
  // Every element card fails on a token it does not use (a misspelled
  // flag or key, a stray field) and names the line, instead of building a
  // device that silently ignores it.
  const char* const kCards[] = {
      "R1 a 0 1k 2k",
      "C1 a 0 1p extra",
      "L1 a 0 1n extra",
      "D1 a 0 is",
      "V1 a 0 1 2",
      "V1 a 0 DC 1 AC",
      "V1 a 0 PULSE(0 1 0 1n 1n 5n 10n 3)",
      "V1 a 0 PWL(0 0 1n)",
      "V1 a 0 SIN(0 1 1meg 0 9)",
      "I1 a 0 1m 2m",
      "M1 a a 0 NMOS w2",
      "E1 a 0 a 0 2 3",
      "G1 a 0 a 0 1m 3",
      "S1 a 0 ron=1 shut",
      "N1 a a 0 0 clsoed",
      "Z1 a 0 stat=1",
      "Z1 a 0 lrs",
      "Q1 a a 0 lo",
  };
  for (const char* card : kCards) {
    SCOPED_TRACE(card);
    try {
      parse_netlist(std::string("t\nR0 a 0 1k\n") + card + "\n.end\n");
      ADD_FAILURE() << "accepted: " << card;
    } catch (const NetlistError& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(parse_netlist("t\nV1 a 0 1\nR1 a 0 1k\nF1 a 0 V1 2 3\n.end\n"),
               NetlistError);
}

TEST(Netlist, SubcktFlattensWithScopedNames) {
  const auto deck = parse_netlist(
      "two RC stages from one template\n"
      "V1 vin 0 1\n"
      ".subckt rcstage in out\n"
      "R1 in mid 1k\n"
      "R2 mid out 1k\n"
      "C1 out 0 1p\n"
      ".ends\n"
      "X1 vin a rcstage\n"
      "X2 a b rcstage\n"
      ".op\n"
      ".print v(b)\n"
      ".end\n");
  // V1 + 2 × (R1 R2 C1) flattened into the one circuit.
  EXPECT_EQ(deck.circuit->devices().size(), 7u);
  // Inner nodes are scoped; ports bound to the caller's nets.
  EXPECT_TRUE(deck.circuit->has_node("x1.mid"));
  EXPECT_TRUE(deck.circuit->has_node("x2.mid"));
  EXPECT_TRUE(deck.circuit->has_node("a"));
  EXPECT_FALSE(deck.circuit->has_node("x1.in"));
  const auto dc = dc_operating_point(*deck.circuit);
  ASSERT_TRUE(dc.converged);
  // No DC path pulls the ladder down: every stage floats at the source.
  EXPECT_NEAR(dc.v[static_cast<std::size_t>(deck.circuit->node("b") - 1)], 1.0,
              1e-6);
}

TEST(Netlist, SubcktMayBeDefinedAfterUse) {
  const auto deck = parse_netlist(
      "forward reference\n"
      "V1 vin 0 2\n"
      "X1 vin out divider\n"
      ".subckt divider a b\n"
      "R1 a b 1k\n"
      "R2 b 0 1k\n"
      ".ends\n"
      ".op\n"
      ".end\n");
  const auto dc = dc_operating_point(*deck.circuit);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.v[static_cast<std::size_t>(deck.circuit->node("out") - 1)],
              1.0, 1e-6);
}

TEST(Netlist, SubcktParamsSubstitutePerInstance) {
  const auto deck = parse_netlist(
      "parameterized divider\n"
      ".param rbase=1k\n"
      "V1 vin 0 3\n"
      ".subckt divider a b rtop={rbase}\n"
      "R1 a b {rtop}\n"
      "R2 b 0 1k\n"
      ".ends\n"
      "X1 vin o1 divider\n"
      "X2 vin o2 divider rtop=2k\n"
      ".op\n"
      ".end\n");
  const auto dc = dc_operating_point(*deck.circuit);
  ASSERT_TRUE(dc.converged);
  const auto v = [&](const char* n) {
    return dc.v[static_cast<std::size_t>(deck.circuit->node(n) - 1)];
  };
  EXPECT_NEAR(v("o1"), 1.5, 1e-6);  // default: 1k over 1k
  EXPECT_NEAR(v("o2"), 1.0, 1e-6);  // override: 2k over 1k
}

TEST(Netlist, ScopedIcReachesInstanceNode) {
  const auto deck = parse_netlist(
      "ic on an inner node\n"
      ".subckt cell top\n"
      "R1 top stor 10k\n"
      "C1 stor 0 1p\n"
      ".ends\n"
      "X1 n1 cell\n"
      "R2 n1 0 1k\n"
      ".ic v(x1.stor)=0.8\n"
      ".tran 10p 1n\n"
      ".end\n");
  ASSERT_TRUE(deck.circuit->has_node("x1.stor"));
  const auto x0 = deck.circuit->initial_state();
  EXPECT_DOUBLE_EQ(
      x0[static_cast<std::size_t>(deck.circuit->node("x1.stor") - 1)], 0.8);
}

TEST(Netlist, SubcktErrors) {
  // Unclosed body points at the .subckt line.
  try {
    parse_netlist("t\n.subckt foo a\nR1 a 0 1k\n.end\n");
    FAIL() << "should have thrown";
  } catch (const NetlistError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  // Unknown subckt reference.
  EXPECT_THROW(parse_netlist("t\nX1 a b nosuch\n.end\n"), NetlistError);
  // Directives are not allowed inside a body.
  EXPECT_THROW(
      parse_netlist("t\n.subckt foo a\n.tran 1n 10n\n.ends\n.end\n"),
      NetlistError);
  // Redefinition.
  EXPECT_THROW(
      parse_netlist(
          "t\n.subckt foo a\nR1 a 0 1k\n.ends\n"
          ".subckt foo a\nR1 a 0 2k\n.ends\n.end\n"),
      NetlistError);
  // Port-count mismatch at the instance.
  EXPECT_THROW(
      parse_netlist("t\n.subckt foo a b\nR1 a b 1k\n.ends\nX1 n1 foo\n.end\n"),
      NetlistError);
}

TEST(Netlist, ContentAfterEndIgnored) {
  const auto deck = parse_netlist(
      "t\n"
      "R1 a 0 1k\n"
      ".end\n"
      "R2 a 0 1k\n");
  EXPECT_EQ(deck.circuit->devices().size(), 1u);
}

TEST(Netlist, SwitchElement) {
  const auto deck = parse_netlist(
      "sw\n"
      "V1 a 0 1\n"
      "S1 a b ron=10 on\n"
      "R1 b 0 10\n"
      ".op\n"
      ".end\n");
  const auto dc = dc_operating_point(*deck.circuit);
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.v[static_cast<std::size_t>(deck.circuit->node("b") - 1)], 0.5,
              1e-6);
}

}  // namespace
