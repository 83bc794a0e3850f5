// Paper reproduction pins (ctest label: paper).
//
// The Fig. 6/7 and §IV.B numbers EXPERIMENTS.md reports are otherwise only
// printed by the benches; these tests fail when a solver or model change
// moves them. Setup matches the benches: 64-bit rows in a 64-row array,
// Calibration::standard(), an alternating 1010… stored word; writes flip
// every cell, searches carry one mismatching bit (the worst case).
//  - Orderings the paper reports are hard inequalities.
//  - The Fig. 7 ratios against the 3T2N are pinned within ±2% of the
//    values this reproduction measures (EXPERIMENTS.md), not the paper's.
//  - The Fig. 6 write latencies and energies, the 3T2N retention from the
//    refresh level V_R and the §IV.B one-shot refresh energy and power are
//    pinned within ±1% of the measured values.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "tcam/Nem3T2NRow.h"
#include "tcam/TcamRow.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::tcam;
using core::Ternary;
using core::TernaryWord;

constexpr int kWidth = 64;
constexpr int kRows = 64;

constexpr TcamKind kPaperKinds[] = {TcamKind::Sram16T, TcamKind::Nem3T2N,
                                    TcamKind::Rram2T2R, TcamKind::Fefet2F};

TernaryWord checker_word() {
  TernaryWord w(static_cast<std::size_t>(kWidth));
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = (i % 2) ? Ternary::Zero : Ternary::One;
  return w;
}

TernaryWord complement(const TernaryWord& w) {
  TernaryWord out(w.size());
  for (std::size_t i = 0; i < w.size(); ++i)
    out[i] = (w[i] == Ternary::One) ? Ternary::Zero : Ternary::One;
  return out;
}

// Fig. 6: every cell of the row flips.
std::map<TcamKind, WriteMetrics> worst_case_writes() {
  std::map<TcamKind, WriteMetrics> out;
  for (const TcamKind k : kPaperKinds) {
    auto row = make_row(k, kWidth, kRows);
    row->store(complement(checker_word()));
    out[k] = row->write(checker_word());
    EXPECT_TRUE(out[k].ok) << kind_name(k) << ": " << out[k].note;
  }
  return out;
}

// Fig. 7: one mismatching bit discharges the precharged matchline.
std::map<TcamKind, SearchMetrics> worst_case_searches() {
  std::map<TcamKind, SearchMetrics> out;
  for (const TcamKind k : kPaperKinds) {
    auto row = make_row(k, kWidth, kRows);
    const TernaryWord word = checker_word();
    row->store(word);
    TernaryWord key = word;
    key[0] = Ternary::Zero;
    out[k] = row->search(key);
    EXPECT_TRUE(out[k].ok) << kind_name(k) << ": " << out[k].note;
    EXPECT_FALSE(out[k].matched) << kind_name(k);
  }
  return out;
}

// |ratio - want| within 2% of want.
void expect_ratio(double ratio, double want, const char* what) {
  EXPECT_NEAR(ratio, want, 0.02 * want) << what;
}

// |value - want| within 1% of want.
void expect_pinned(double value, double want, const std::string& what) {
  EXPECT_NEAR(value, want, 0.01 * want) << what;
}

// Fig. 6(a): SRAM writes fastest, the 3T2N at about one mechanical delay,
// the NVMs device-limited at ~10 ns.
TEST(PaperFig6, WriteLatencyOrdering) {
  auto w = worst_case_writes();
  EXPECT_LT(w[TcamKind::Sram16T].latency, w[TcamKind::Nem3T2N].latency);
  EXPECT_LT(w[TcamKind::Nem3T2N].latency, w[TcamKind::Rram2T2R].latency);
  EXPECT_LT(w[TcamKind::Nem3T2N].latency, w[TcamKind::Fefet2F].latency);
}

// Fig. 6(b): 3T2N < SRAM < 2FeFET < 2T2R write energy.
TEST(PaperFig6, WriteEnergyOrdering) {
  auto w = worst_case_writes();
  EXPECT_LT(w[TcamKind::Nem3T2N].energy, w[TcamKind::Sram16T].energy);
  EXPECT_LT(w[TcamKind::Sram16T].energy, w[TcamKind::Fefet2F].energy);
  EXPECT_LT(w[TcamKind::Fefet2F].energy, w[TcamKind::Rram2T2R].energy);
}

// Fig. 6(a)/(b) values of the checkerboard flip (EXPERIMENTS.md).
TEST(PaperFig6, WriteLatencyAndEnergyValues) {
  struct Pin {
    TcamKind kind;
    double latency;  // s
    double energy;   // J
  };
  auto w = worst_case_writes();
  for (const Pin& p : {Pin{TcamKind::Sram16T, 0.2083e-9, 0.8808e-12},
                       Pin{TcamKind::Nem3T2N, 2.031e-9, 0.3129e-12},
                       Pin{TcamKind::Rram2T2R, 11.28e-9, 74.12e-12},
                       Pin{TcamKind::Fefet2F, 9.524e-9, 3.633e-12}}) {
    expect_pinned(w[p.kind].latency, p.latency,
                  std::string(kind_name(p.kind)) + " write latency");
    expect_pinned(w[p.kind].energy, p.energy,
                  std::string(kind_name(p.kind)) + " write energy");
  }
}

// Fig. 7(a): 3T2N < 2T2R < 2FeFET < SRAM search latency.
TEST(PaperFig7, SearchLatencyOrderingAndRatios) {
  auto s = worst_case_searches();
  const double nem = s[TcamKind::Nem3T2N].latency;
  ASSERT_GT(nem, 0.0);
  EXPECT_LT(nem, s[TcamKind::Rram2T2R].latency);
  EXPECT_LT(s[TcamKind::Rram2T2R].latency, s[TcamKind::Fefet2F].latency);
  EXPECT_LT(s[TcamKind::Fefet2F].latency, s[TcamKind::Sram16T].latency);
  expect_ratio(s[TcamKind::Sram16T].latency / nem, 5.48, "SRAM latency");
  expect_ratio(s[TcamKind::Rram2T2R].latency / nem, 1.58, "RRAM latency");
  expect_ratio(s[TcamKind::Fefet2F].latency / nem, 3.68, "FeFET latency");
}

// Fig. 7(b): the denser NVM cells undercut the 3T2N, SRAM pays its large
// cell: 2FeFET < 2T2R < 3T2N < SRAM search energy.
TEST(PaperFig7, SearchEnergyOrderingAndRatios) {
  auto s = worst_case_searches();
  const double nem = s[TcamKind::Nem3T2N].energy;
  ASSERT_GT(nem, 0.0);
  EXPECT_LT(s[TcamKind::Fefet2F].energy, s[TcamKind::Rram2T2R].energy);
  EXPECT_LT(s[TcamKind::Rram2T2R].energy, nem);
  EXPECT_LT(nem, s[TcamKind::Sram16T].energy);
  expect_ratio(s[TcamKind::Sram16T].energy / nem, 2.71, "SRAM energy");
  expect_ratio(s[TcamKind::Rram2T2R].energy / nem, 0.81, "RRAM energy");
  expect_ratio(s[TcamKind::Fefet2F].energy / nem, 0.69, "FeFET energy");
}

// Fig. 7(c), the headline: the 3T2N has the lowest search EDP, then
// 2T2R < 2FeFET < SRAM.
TEST(PaperFig7, SearchEdpOrdering) {
  auto s = worst_case_searches();
  EXPECT_LT(s[TcamKind::Nem3T2N].edp(), s[TcamKind::Rram2T2R].edp());
  EXPECT_LT(s[TcamKind::Rram2T2R].edp(), s[TcamKind::Fefet2F].edp());
  EXPECT_LT(s[TcamKind::Fefet2F].edp(), s[TcamKind::Sram16T].edp());
}

// §IV.B: a '1' refreshed to V_R = 0.5 V holds for ~26.7 µs (paper:
// 26.5 µs) before write-transistor leakage releases the relay.
TEST(PaperOsr, RetentionFromRefreshLevel) {
  const Calibration cal = Calibration::standard();
  const Nem3T2NRow row(kWidth, kRows, cal);
  EXPECT_NEAR(row.simulate_retention(cal.v_refresh), 26.69e-6,
              0.01 * 26.69e-6);
}

// §IV.B: one-shot refresh of the whole 64x64 array holding the
// checkerboard word (paper: ~520 fJ and 19.6 nW; this reproduction
// charges all 64 boosted wordlines, EXPERIMENTS.md).
TEST(PaperOsr, RefreshEnergyAndPower) {
  Nem3T2NRow row(kWidth, kRows, Calibration::standard());
  row.store(checker_word());
  const RefreshMetrics r = row.one_shot_refresh();
  ASSERT_TRUE(r.ok) << r.note;
  expect_pinned(r.energy_per_op, 1.942e-12, "OSR energy");
  expect_pinned(r.refresh_power, 72.77e-9, "refresh power");
}

}  // namespace
