// Hierarchical-IR acceptance suite (ctest label: hier).
//
// Covers the elaborate-once contract end to end: every row design's
// template search and write must reproduce the reference metrics of the
// hand-built flat netlists the templates replaced (recorded below), a
// replayed search or write must not rebuild anything, and a textual
// .subckt deck must parse, elaborate, pass ERC and simulate.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string>

#include "devices/NemRelay.h"
#include "erc/Checker.h"
#include "fault/FaultInjector.h"
#include "hier/Elaborate.h"
#include "netlist/Netlist.h"
#include "spice/Transient.h"
#include "tcam/RowSpecs.h"
#include "tcam/Rram2T2RRow.h"
#include "tcam/SearchTemplate.h"
#include "tcam/TcamRow.h"

#include "SameSearch.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::tcam;
using core::Ternary;
using core::TernaryWord;

constexpr int kWidth = 8;
constexpr int kRows = 64;

// |a - b| within 0.1% of |b| (or both ~0).
void expect_close(double a, double b, const char* what) {
  const double tol = 1e-3 * std::max(std::abs(b), 1e-30);
  EXPECT_NEAR(a, b, tol) << what << ": template=" << a << " reference=" << b;
}

// Reference search metrics of the flat netlists.
struct Golden {
  bool matched;
  double latency;  // s
  double energy;   // J
  double ml_min;   // V
};

void expect_golden(const SearchMetrics& m, const Golden& ref) {
  ASSERT_TRUE(m.ok) << m.note;
  EXPECT_EQ(m.matched, ref.matched);
  expect_close(m.latency, ref.latency, "latency");
  expect_close(m.energy, ref.energy, "energy");
  // A replayed solve refactorizes on the cached pattern, so the ~nV
  // discharge residue can differ at rounding level; a 1 µV absolute floor
  // keeps the check meaningful against the 1 V signal scale.
  EXPECT_NEAR(m.ml_min, ref.ml_min,
              std::max(1e-3 * std::abs(ref.ml_min), 1e-6));
}

class AllKindsHier : public ::testing::TestWithParam<TcamKind> {};

INSTANTIATE_TEST_SUITE_P(
    Designs, AllKindsHier,
    ::testing::Values(TcamKind::Sram16T, TcamKind::Nem3T2N, TcamKind::Rram2T2R,
                      TcamKind::Fefet2F, TcamKind::Dtcam5T,
                      TcamKind::Fefet4T2F, TcamKind::Mram4T2M),
    [](const auto& param_info) {
      switch (param_info.param) {
        case TcamKind::Sram16T: return "Sram16T";
        case TcamKind::Nem3T2N: return "Nem3T2N";
        case TcamKind::Rram2T2R: return "Rram2T2R";
        case TcamKind::Fefet2F: return "Fefet2F";
        case TcamKind::Dtcam5T: return "Dtcam5T";
        case TcamKind::Fefet4T2F: return "Fefet4T2F";
        case TcamKind::Mram4T2M: return "Mram4T2M";
      }
      return "unknown";
    });

// Flat-netlist metrics of the word/keys below at kWidth x kRows: the
// first search of each pair builds the template, the second replays it.
struct KindGolden {
  Golden match;
  Golden miss;
};

KindGolden golden_for(TcamKind kind) {
  switch (kind) {
    case TcamKind::Sram16T:
      return {{true, 0.0, 1.10803e-13, 1.14435},
              {false, 2.62901e-10, 1.14242e-13, 3.77668e-09}};
    case TcamKind::Nem3T2N:
      return {{true, 0.0, 4.44253e-14, 0.803189},
              {false, 6.36587e-11, 4.64275e-14, 3.91939e-09}};
    case TcamKind::Rram2T2R:
      return {{true, 1.31872e-09, 3.66925e-14, 0.239296},
              {false, 1.32357e-10, 3.71417e-14, 5.34335e-04}};
    case TcamKind::Fefet2F:
      return {{true, 0.0, 2.59627e-14, 1.10761},
              {false, 1.42108e-10, 3.24790e-14, -1.23738e-08}};
    case TcamKind::Dtcam5T:
      return {{true, 0.0, 3.98706e-14, 1.04642},
              {false, 1.94048e-10, 4.14955e-14, -1.86333e-07}};
    case TcamKind::Fefet4T2F:
      return {{true, 0.0, 3.24481e-14, 1.10800},
              {false, 1.60115e-10, 4.04404e-14, 5.03197e-08}};
    case TcamKind::Mram4T2M:
      return {{true, 9.79867e-09, 7.76670e-12, 0.472209},
              {false, 8.90227e-10, 7.31143e-12, 1.18076e-04}};
  }
  return {};
}

TEST_P(AllKindsHier, TemplatePathMatchesFlatPath) {
  const TernaryWord word("10X10010");
  const TernaryWord match_key("10110010");   // X columns are don't-care
  const TernaryWord mismatch_key("00110010");

  auto row = make_row(GetParam(), kWidth, kRows);
  row->store(word);
  const KindGolden ref = golden_for(GetParam());
  expect_golden(row->search(match_key), ref.match);
  expect_golden(row->search(mismatch_key), ref.miss);
}

// The same searches held tighter than the flat-netlist goldens above: the
// one-row search fixture's figures at full precision, so a change to its
// construction order (node numbering, device stamping order) shows here,
// not just a change of circuit.
struct PinnedSearch {
  bool matched;
  double latency;   // s
  double energy;    // J
  double ml_final;  // V
};

// 10X10010 stored; searched with 10110010 (builds), 00110010 (a replay
// with the bit-0 miss rebound) and 10110010 again (a replay rebound back).
std::array<PinnedSearch, 3> pinned_searches_for(TcamKind kind) {
  switch (kind) {
    case TcamKind::Sram16T:
      return {{{true, 0.0, 1.1080208540004771e-13, 1.1443457834036266},
               {false, 2.6290123907906936e-10, 1.1424119571760465e-13,
                4.7202892674339884e-08},
               {true, 0.0, 1.1080208540004771e-13, 1.1443457834036266}}};
    case TcamKind::Nem3T2N:
      return {{{true, 0.0, 4.4425909366489445e-14, 0.80318876509666259},
               {false, 6.3658759601665099e-11, 4.6427667214555652e-14,
                9.3725874558723957e-09},
               {true, 0.0, 4.4425909366489445e-14, 0.80318876509666259}}};
    case TcamKind::Rram2T2R:
      return {{{true, 1.3187228516656364e-09, 3.669250196783928e-14,
                0.23929580620349519},
               {false, 1.3235706459690031e-10, 3.7141674110553083e-14,
                0.00053433497022661327},
               {true, 1.3187228516656364e-09, 3.669250196783928e-14,
                0.23929580620349519}}};
    case TcamKind::Fefet2F:
      return {{{true, 0.0, 2.5947199797294329e-14, 1.351429552921994},
               {false, 1.421080234064311e-10, 3.2477959708905358e-14,
                1.1634482554607903e-08},
               {true, 0.0, 2.5947199797294329e-14, 1.351429552921994}}};
    case TcamKind::Dtcam5T:
      return {{{true, 0.0, 3.9867045758508586e-14, 1.0464255421026909},
               {false, 1.9397917010891633e-10, 4.1492117889756587e-14,
                -7.7547633190106148e-08},
               {true, 0.0, 3.9867045758508586e-14, 1.0464255421026909}}};
    case TcamKind::Fefet4T2F:
      return {{{true, 0.0, 3.2448119088762813e-14, 1.1662633381535885},
               {false, 1.6011518200070474e-10, 4.044040111126156e-14,
                5.0330882222389279e-08},
               {true, 0.0, 3.2448119088762813e-14, 1.1662633381535885}}};
    case TcamKind::Mram4T2M:
      return {{{true, 9.7988256624071852e-09, 7.7666305191048472e-12,
                0.4722076085288997},
               {false, 8.9027097969102446e-10, 7.3114212305167283e-12,
                0.00018012869412466418},
               {true, 9.7988256624071852e-09, 7.7666305191048472e-12,
                0.4722076085288997}}};
  }
  return {};
}

TEST_P(AllKindsHier, SearchesMatchPinnedFiguresAt1e6) {
  const TernaryWord keys[] = {TernaryWord("10110010"), TernaryWord("00110010"),
                              TernaryWord("10110010")};
  const std::array<PinnedSearch, 3> ref = pinned_searches_for(GetParam());

  auto row = make_row(GetParam(), kWidth, kRows);
  row->store(TernaryWord("10X10010"));
  std::array<SearchMetrics, 3> got;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    SCOPED_TRACE("search " + std::to_string(i) + ", key " + keys[i].to_string());
    const SearchMetrics m = row->search(keys[i]);
    ASSERT_TRUE(m.ok) << m.note;
    EXPECT_EQ(m.matched, ref[i].matched);
    EXPECT_NEAR(m.latency, ref[i].latency, 1e-6 * ref[i].latency);
    EXPECT_NEAR(m.energy, ref[i].energy, 1e-6 * ref[i].energy);
    // A 1 nV floor under the discharged rows' ~10 nV residues.
    EXPECT_NEAR(m.ml_final, ref[i].ml_final,
                std::max(1e-6 * std::abs(ref[i].ml_final), 1e-9));
    got[i] = m;
  }
  // Search 2 replays the key that built the template: it reproduces the
  // build bit for bit, whatever key was bound in between.
  EXPECT_EQ(got[2].latency, got[0].latency);
  EXPECT_EQ(got[2].energy, got[0].energy);
  EXPECT_EQ(got[2].ml_final, got[0].ml_final);
}

// Flat-netlist write metrics at kWidth x kRows: 10110010 is stored, then
// 01X01101 is written (the first write elaborates the template), then
// 10110010 again (a replay; the hand-built netlists were built afresh).
struct WriteGolden {
  double latency;  // s
  double energy;   // J
};
struct KindWriteGolden {
  WriteGolden first;
  WriteGolden replay;
  // The MRAM's MTJ switch times land on step commits, so its latency is
  // resolved to one 50 ps step (0.54% of its write). Its hand-built search
  // and write netlists stamped the sense and access devices in opposite
  // orders; the one cell keeps the search's order, and the rounding moves
  // the write's switch commits within a step (0.07% first, 0.19% replay).
  double latency_tol = 1e-3;
};

KindWriteGolden write_golden_for(TcamKind kind) {
  switch (kind) {
    case TcamKind::Sram16T:
      return {{1.37997e-10, 1.01267e-13}, {1.38003e-10, 1.01478e-13}};
    case TcamKind::Nem3T2N:
      return {{2.02180e-09, 3.45323e-14}, {2.02163e-09, 3.88283e-14}};
    case TcamKind::Rram2T2R:
      return {{9.33452e-09, 9.33024e-12}, {9.31889e-09, 1.01928e-11}};
    case TcamKind::Fefet2F:
      return {{9.52352e-09, 4.54132e-13}, {9.52352e-09, 4.54132e-13}};
    case TcamKind::Dtcam5T:
      return {{4.69956e-11, 3.12307e-14}, {4.66380e-11, 3.50296e-14}};
    case TcamKind::Fefet4T2F:
      return {{9.54886e-09, 8.20710e-13}, {9.53413e-09, 8.12598e-13}};
    case TcamKind::Mram4T2M:
      return {{9.25401e-09, 2.19552e-11}, {9.23906e-09, 2.12311e-11}, 5.4e-3};
  }
  return {};
}

TEST_P(AllKindsHier, WriteMatchesParentGoldens) {
  auto row = make_row(GetParam(), kWidth, kRows);
  row->store(TernaryWord("10110010"));
  const KindWriteGolden ref = write_golden_for(GetParam());
  for (const auto& [word, golden] :
       {std::pair{"01X01101", ref.first}, std::pair{"10110010", ref.replay}}) {
    const WriteMetrics m = row->write(TernaryWord(word));
    ASSERT_TRUE(m.ok) << m.note;
    EXPECT_EQ(row->stored(), TernaryWord(word));
    EXPECT_NEAR(m.latency, golden.latency, ref.latency_tol * golden.latency)
        << "write latency of " << word;
    expect_close(m.energy, golden.energy, "write energy");
  }
}

TEST_P(AllKindsHier, ReplayedWriteRebuildsNothing) {
  auto row = make_row(GetParam(), kWidth, kRows);
  row->store(TernaryWord("10110010"));
  ASSERT_TRUE(row->write(TernaryWord("01001101")).ok);

  const hier::Stats before = hier::stats();
  ASSERT_TRUE(row->write(TernaryWord("1111XXXX")).ok);
  ASSERT_TRUE(row->write(TernaryWord("00000000")).ok);
  const hier::Stats after = hier::stats();
  EXPECT_EQ(after.instances_elaborated, before.instances_elaborated);
  EXPECT_EQ(after.cards_emitted, before.cards_emitted);
  EXPECT_EQ(row->stored(), TernaryWord("00000000"));
}

TEST(HierTemplate, ReplayedSearchRebuildsNothing) {
  auto row = make_row(TcamKind::Nem3T2N, kWidth, kRows);
  row->store(TernaryWord("1011X010"));

  const TernaryWord key("10110010");
  const SearchMetrics first = row->search(key);
  ASSERT_TRUE(first.ok) << first.note;

  // After the first search the template exists; replays — same key or a
  // rebound one — must not elaborate a single instance or rebuild the
  // stamp pattern.
  const hier::Stats before = hier::stats();
  const SearchMetrics second = row->search(key);
  const SearchMetrics third = row->search(key);
  const SearchMetrics rebound = row->search(TernaryWord("00110010"));
  const hier::Stats after = hier::stats();

  ASSERT_TRUE(second.ok && third.ok && rebound.ok);
  EXPECT_EQ(after.instances_elaborated, before.instances_elaborated);
  EXPECT_EQ(after.cards_emitted, before.cards_emitted);
  EXPECT_EQ(second.stamp_pattern_builds, third.stamp_pattern_builds);
  EXPECT_EQ(third.stamp_pattern_builds, rebound.stamp_pattern_builds);

  // And the replays still compute the right answers.
  EXPECT_TRUE(second.matched);
  EXPECT_TRUE(third.matched);
  EXPECT_FALSE(rebound.matched);
  EXPECT_NEAR(second.ml_min, third.ml_min, 1e-12);
}

TEST(HierTemplate, StoreOfNewWordRebuildsAndStaysCorrect) {
  auto row = make_row(TcamKind::Nem3T2N, kWidth, kRows);
  row->store(TernaryWord("11110000"));
  EXPECT_TRUE(row->search(TernaryWord("11110000")).matched);

  // The ERC rules registered at build time are bound to the stored word;
  // a store() must therefore rebuild the template, not just re-seed it.
  row->store(TernaryWord("00001111"));
  const SearchMetrics m = row->search(TernaryWord("00001111"));
  ASSERT_TRUE(m.ok) << m.note;
  EXPECT_TRUE(m.matched);
  EXPECT_FALSE(row->search(TernaryWord("11110000")).matched);
}

TEST(HierTemplate, RramVariationRebindsTemplateInPlace) {
  // Resistance variation is drawn into the elaborated RRAMs in place: the
  // varied search reproduces the flat netlist built from the same draws,
  // and the replay elaborates nothing.
  auto row = make_row(TcamKind::Rram2T2R, kWidth, kRows);
  auto* rram = dynamic_cast<Rram2T2RRow*>(row.get());
  ASSERT_NE(rram, nullptr);
  rram->set_resistance_sigma(0.3);
  row->store(TernaryWord("10110010"));
  expect_golden(row->search(TernaryWord("10110010")),
                {true, 1.60030e-09, 3.67013e-14, 0.306417});

  const hier::Stats before = hier::stats();
  const SearchMetrics miss = row->search(TernaryWord("00110010"));
  const hier::Stats after = hier::stats();
  expect_golden(miss, {false, 1.21485e-10, 3.72686e-14, 2.72716e-04});
  EXPECT_EQ(after.instances_elaborated, before.instances_elaborated);
  EXPECT_EQ(after.cards_emitted, before.cards_emitted);
}

TEST(HierDeck, SubcktDeckParsesErcCleanAndSimulates) {
  // A two-cell relay row: precharged ML, one matching and one mismatching
  // column — the textual twin of the elaborated search templates.
  const auto deck = spice::parse_netlist(
      "two-column NEM relay match test\n"
      ".subckt relay_cell ml sl slb stg1v=0 stg2v=0\n"
      "N1 slb stg1 gs 0 closed\n"
      "N2 sl stg2 gs 0\n"
      "Ms ml gs 0 NMOS w=1.5\n"
      "C1 stg1 0 1f\n"
      "C2 stg2 0 1f\n"
      "* bleeders stand in for the off write transistors' leak path\n"
      "R1 stg1 0 100g\n"
      "R2 stg2 0 100g\n"
      ".ends\n"
      "Vpre ml 0 PWL(0 1 0.2n 1 0.25n 0)\n"
      "Csense ml 0 5f\n"
      "Vsl0 sl0 0 PWL(0 0 0.3n 0 0.32n 1)\n"
      "Vslb0 slb0 0 0\n"
      "Vsl1 sl1 0 0\n"
      "Vslb1 slb1 0 PWL(0 0 0.3n 0 0.32n 1)\n"
      "X0 ml sl0 slb0 relay_cell\n"
      "X1 ml sl1 slb1 relay_cell\n"
      ".ic v(ml)=1 v(x0.stg1)=0.9\n"
      ".tran 10p 2n\n"
      ".print v(ml) v(x0.gs) v(x1.gs)\n"
      ".end\n");
  ASSERT_NE(deck.circuit, nullptr);
  ASSERT_EQ(deck.analysis.kind, spice::ParsedAnalysis::Kind::Tran);
  EXPECT_TRUE(deck.circuit->has_node("x0.stg1"));
  EXPECT_TRUE(deck.circuit->has_node("x1.gs"));

  // Structural lint: the elaborated deck is ERC-clean.
  erc::Checker checker;
  const erc::Report report = checker.run(*deck.circuit);
  EXPECT_FALSE(report.has_errors()) << report.to_string();

  const auto opts = spice::step_defaults(deck.analysis.tran_t_end);
  const auto result = spice::run_transient(*deck.circuit, opts);
  ASSERT_TRUE(result.finished) << result.failure;
}

TEST(HierFault, InjectorUnderstandsScopedRelayNames) {
  // The elaborated templates name relays "Xcell<col>.N1"; the injector
  // must hit them exactly as it hits the flat "N1_<col>" names.
  spice::Circuit ckt;
  const auto g = ckt.ground();
  auto& hier_n1 = ckt.add<devices::NemRelay>("Xcell3.N1", g, ckt.node("a"),
                                             ckt.node("b"), g);
  auto& hier_n2 = ckt.add<devices::NemRelay>("Xcell3.N2", g, ckt.node("c"),
                                             ckt.node("d"), g);
  auto& other_col = ckt.add<devices::NemRelay>("Xcell2.N1", g, ckt.node("e"),
                                               ckt.node("f"), g);

  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::RelayStuckClosed;
  spec.col = 3;
  spec.on_n1 = true;
  EXPECT_EQ(injector.apply(ckt, spec), 1);
  EXPECT_TRUE(hier_n1.stuck());
  EXPECT_FALSE(hier_n2.stuck());
  EXPECT_FALSE(other_col.stuck());

  spec.on_n1 = false;
  EXPECT_EQ(injector.apply(ckt, spec), 1);
  EXPECT_TRUE(hier_n2.stuck());
}

// --- Resumed searches --------------------------------------------------

// `width` trits cycling 1, 0, X, 1, 1, 0.
TernaryWord mixed_word(int width) {
  const Ternary cycle[] = {Ternary::One, Ternary::Zero, Ternary::X,
                           Ternary::One, Ternary::One,  Ternary::Zero};
  TernaryWord w(static_cast<std::size_t>(width));
  for (int c = 0; c < width; ++c)
    w[static_cast<std::size_t>(c)] = cycle[c % 6];
  return w;
}

// The stored word with its X columns searched as 1: a match.
TernaryWord matching_key(const TernaryWord& stored) {
  TernaryWord k = stored;
  for (std::size_t c = 0; c < k.size(); ++c)
    if (k[c] == Ternary::X) k[c] = Ternary::One;
  return k;
}

// A warm template's search resumes at the searchline edge from the
// checkpoint its last full run left; it must report exactly what a fresh
// template's first search with the same key reports. Keys of 0/1 only (a
// one-bit miss), with X columns (a miss elsewhere) and all X (a match).
TEST_P(AllKindsHier, ResumedSearchEqualsFreshTemplateBitForBit) {
  const SearchTemplateSpec spec =
      search_spec_for(GetParam(), Calibration::standard());
  for (const int width : {8, 32}) {
    const TernaryWord stored = mixed_word(width);
    TernaryWord binary = matching_key(stored);
    binary[0] = Ternary::Zero;
    TernaryWord with_x = matching_key(stored);
    with_x[1] = Ternary::One;
    for (std::size_t c = 3; c < with_x.size(); c += 4) with_x[c] = Ternary::X;

    SearchTemplate warm(spec, width, kRows);
    const double strobe = warm.default_strobe();
    ASSERT_TRUE(warm.search(matching_key(stored), stored, strobe).ok);
    for (const TernaryWord& key :
         {binary, with_x, TernaryWord::all_x(stored.size())}) {
      SCOPED_TRACE("width " + std::to_string(width) + ", key " +
                   key.to_string());
      SearchTemplate fresh(spec, width, kRows);
      const SearchMetrics ref = fresh.search(key, stored, strobe);
      EXPECT_EQ(ref.matched, stored.matches(key));
      expect_same_search(warm.search(key, stored, strobe), ref);
      expect_same_search(warm.search(key, stored, strobe), ref);
    }
  }
}

// An in-place edit changes the circuit's state at t = 0, so the warm
// template's next search runs in full and equals a fresh template that got
// the same edit before its first search. Here: RRAM resistance variation
// drawn through TcamRow::search, and an initial condition on the
// matchline, which no binder writes.
TEST(ResumeAfterEdit, RramVariationForcesAFullRun) {
  const TernaryWord stored("10X10010");
  const TernaryWord key("00110010");
  auto warm = make_row(TcamKind::Rram2T2R, kWidth, kRows);
  warm->store(stored);
  ASSERT_TRUE(warm->search(TernaryWord("10110010")).ok);
  auto* rram = dynamic_cast<Rram2T2RRow*>(warm.get());
  ASSERT_NE(rram, nullptr);
  rram->set_resistance_sigma(0.3);
  const SearchMetrics edited = warm->search(key);

  auto fresh = make_row(TcamKind::Rram2T2R, kWidth, kRows);
  dynamic_cast<Rram2T2RRow&>(*fresh).set_resistance_sigma(0.3);
  fresh->store(stored);
  expect_same_search(edited, fresh->search(key));
}

TEST(ResumeAfterEdit, InitialConditionForcesAFullRun) {
  const SearchTemplateSpec spec =
      search_spec_for(TcamKind::Nem3T2N, Calibration::standard());
  const TernaryWord stored("10X10010");
  const TernaryWord key("00110010");
  SearchTemplate warm(spec, kWidth, kRows);
  const double strobe = warm.default_strobe();
  ASSERT_TRUE(warm.search(TernaryWord("10110010"), stored, strobe).ok);
  spice::Circuit& ckt = *warm.circuit();
  ckt.set_ic(ckt.node("ml"), 0.3);
  const std::uint64_t before = solver_passes(warm);
  const SearchMetrics edited = warm.search(key, stored, strobe);
  EXPECT_EQ(solver_passes(warm) - before, edited.newton_iters);

  SearchTemplate fresh(spec, kWidth, kRows);
  fresh.ensure_built(key, stored);
  fresh.circuit()->set_ic(fresh.circuit()->node("ml"), 0.3);
  expect_same_search(edited, fresh.search(key, stored, strobe));
}

}  // namespace
