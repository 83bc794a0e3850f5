// Circuit-level TCAM row tests. Rows are built at width 8 (64-row column
// loading) so each transient stays fast; the benches run the full width-64
// experiments.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/TcamModel.h"
#include "devices/Mosfet.h"
#include "spice/Circuit.h"
#include "tcam/Dtcam5TRow.h"
#include "tcam/Nem3T2NRow.h"
#include "tcam/Rram2T2RRow.h"
#include "tcam/RowSpecs.h"
#include "tcam/SearchTemplate.h"
#include "tcam/TcamRow.h"
#include "util/Random.h"

#include "SameSearch.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::tcam;
using core::Ternary;
using core::TernaryWord;

constexpr int kWidth = 8;
constexpr int kRows = 64;

TernaryWord flip_bit(TernaryWord w, std::size_t i) {
  w[i] = (w[i] == Ternary::One) ? Ternary::Zero : Ternary::One;
  return w;
}

const char* kind_param_name(
    const ::testing::TestParamInfo<TcamKind>& param_info) {
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
}

class AllKinds : public ::testing::TestWithParam<TcamKind> {};

INSTANTIATE_TEST_SUITE_P(Designs, AllKinds,
                         ::testing::Values(TcamKind::Sram16T, TcamKind::Nem3T2N,
                                           TcamKind::Rram2T2R,
                                           TcamKind::Fefet2F,
                                           TcamKind::Dtcam5T,
                                           TcamKind::Fefet4T2F),
                         kind_param_name);

TEST_P(AllKinds, MatchHoldsMatchline) {
  auto row = make_row(GetParam(), kWidth, kRows);
  const TernaryWord word("10110010");
  row->store(word);
  const SearchMetrics m = row->search(word);
  ASSERT_TRUE(m.ok) << m.note;
  EXPECT_TRUE(m.matched);
}

TEST_P(AllKinds, SingleBitMismatchDischarges) {
  auto row = make_row(GetParam(), kWidth, kRows);
  const TernaryWord word("10110010");
  row->store(word);
  const SearchMetrics m = row->search(flip_bit(word, 3));
  ASSERT_TRUE(m.ok) << m.note;
  EXPECT_FALSE(m.matched);
  EXPECT_GT(m.latency, 0.0);
  EXPECT_LT(m.ml_min, 0.3);
}

TEST_P(AllKinds, AllBitsMismatchDischargesFaster) {
  auto row = make_row(GetParam(), kWidth, kRows);
  const TernaryWord word("11111111");
  row->store(word);
  const SearchMetrics one_bit = row->search(TernaryWord("11111110"));
  const SearchMetrics all_bits = row->search(TernaryWord("00000000"));
  ASSERT_TRUE(one_bit.ok && all_bits.ok);
  EXPECT_FALSE(one_bit.matched);
  EXPECT_FALSE(all_bits.matched);
  // More parallel pull-down paths discharge the ML strictly faster.
  EXPECT_LT(all_bits.latency, one_bit.latency);
}

TEST_P(AllKinds, StoredDontCareMatchesBothValues) {
  auto row = make_row(GetParam(), kWidth, kRows);
  TernaryWord word("1011X010");
  row->store(word);
  TernaryWord key0 = word;
  key0[4] = Ternary::Zero;
  TernaryWord key1 = word;
  key1[4] = Ternary::One;
  const SearchMetrics m0 = row->search(key0);
  const SearchMetrics m1 = row->search(key1);
  ASSERT_TRUE(m0.ok && m1.ok);
  EXPECT_TRUE(m0.matched);
  EXPECT_TRUE(m1.matched);
}

TEST_P(AllKinds, SearchKeyDontCareMasksMismatch) {
  auto row = make_row(GetParam(), kWidth, kRows);
  const TernaryWord word("10110010");
  row->store(word);
  // Flip bit 2 but search it as X: must match.
  TernaryWord key = flip_bit(word, 2);
  key[2] = Ternary::X;
  const SearchMetrics m = row->search(key);
  ASSERT_TRUE(m.ok) << m.note;
  EXPECT_TRUE(m.matched);
}

TEST_P(AllKinds, AllXRowMatchesAnyKey) {
  auto row = make_row(GetParam(), kWidth, kRows);
  row->store(TernaryWord::all_x(kWidth));
  util::Rng rng(9);
  const auto key = TernaryWord::from_uint(
      static_cast<std::uint64_t>(rng.uniform_int(0, 255)), kWidth);
  const SearchMetrics m = row->search(key);
  ASSERT_TRUE(m.ok) << m.note;
  EXPECT_TRUE(m.matched);
}

TEST_P(AllKinds, WriteTransactionReachesTargetState) {
  auto row = make_row(GetParam(), kWidth, kRows);
  row->store(TernaryWord("01010101"));
  const TernaryWord target("10101010");  // every cell flips
  const WriteMetrics w = row->write(target);
  ASSERT_TRUE(w.ok) << w.note;
  EXPECT_GT(w.latency, 0.0);
  EXPECT_GT(w.energy, 0.0);
  EXPECT_EQ(row->stored(), target);
}

TEST_P(AllKinds, WriteThenSearchIsConsistent) {
  auto row = make_row(GetParam(), kWidth, kRows);
  row->store(TernaryWord("00000000"));
  const TernaryWord word("1100X01X");
  const WriteMetrics w = row->write(word);
  ASSERT_TRUE(w.ok) << w.note;
  const SearchMetrics hit = row->search(TernaryWord("11000011"));
  const SearchMetrics miss = row->search(TernaryWord("01000011"));
  ASSERT_TRUE(hit.ok && miss.ok);
  EXPECT_TRUE(hit.matched);
  EXPECT_FALSE(miss.matched);
}

TEST_P(AllKinds, WriteDontCareWord) {
  auto row = make_row(GetParam(), kWidth, kRows);
  row->store(TernaryWord("11111111"));
  const WriteMetrics w = row->write(TernaryWord::all_x(kWidth));
  ASSERT_TRUE(w.ok) << w.note;
  const SearchMetrics m = row->search(TernaryWord("01100101"));
  ASSERT_TRUE(m.ok);
  EXPECT_TRUE(m.matched);
}

TEST_P(AllKinds, SearchEnergyIsPositiveAndBounded) {
  auto row = make_row(GetParam(), kWidth, kRows);
  row->store(TernaryWord("10101010"));
  const SearchMetrics m = row->search(TernaryWord("10101010"));
  ASSERT_TRUE(m.ok);
  EXPECT_GT(m.energy, 1e-18);
  EXPECT_LT(m.energy, 1e-9);  // far below a nanojoule at width 8
}

// Property check: circuit-level match/mismatch agrees with the behavioral
// golden model for random stored words and keys.
TEST_P(AllKinds, AgreesWithBehavioralModel) {
  util::Rng rng(GetParam() == TcamKind::Sram16T ? 11 : 23);
  auto row = make_row(GetParam(), kWidth, kRows);
  for (int trial = 0; trial < 4; ++trial) {
    TernaryWord word(kWidth);
    for (std::size_t b = 0; b < kWidth; ++b) {
      const int v = rng.uniform_int(0, 3);
      word[b] = v == 0 ? Ternary::X : (v % 2 ? Ternary::One : Ternary::Zero);
    }
    row->store(word);
    TernaryWord key(kWidth);
    for (std::size_t b = 0; b < kWidth; ++b)
      key[b] = rng.bernoulli(0.5) ? Ternary::One : Ternary::Zero;
    const SearchMetrics m = row->search(key);
    ASSERT_TRUE(m.ok) << m.note;
    EXPECT_EQ(m.matched, word.matches(key))
        << "word=" << word.to_string() << " key=" << key.to_string();
  }
}

// --- 3T2N-specific: one-shot refresh and retention -----------------------

TEST(Nem3T2N, OneShotRefreshPreservesArbitraryWord) {
  Nem3T2NRow row(kWidth, kRows, Calibration::standard());
  row.store(TernaryWord("1X010X10"));
  const RefreshMetrics r = row.one_shot_refresh();
  ASSERT_TRUE(r.ok) << r.note;
  EXPECT_GT(r.energy_per_op, 0.0);
  EXPECT_GT(r.latency, 0.0);
  // Data still searchable after the refresh (stored state unchanged).
  const SearchMetrics m = row.search(TernaryWord("10010110"));
  ASSERT_TRUE(m.ok);
  EXPECT_TRUE(m.matched);
}

TEST(Nem3T2N, RetentionIsTensOfMicroseconds) {
  Nem3T2NRow row(kWidth, kRows, Calibration::standard());
  const double t_ret = row.simulate_retention(Calibration::standard().v_refresh);
  EXPECT_GT(t_ret, 5e-6);
  EXPECT_LT(t_ret, 200e-6);
}

TEST(Nem3T2N, RetentionShrinksFromLowerStartVoltage) {
  Nem3T2NRow row(kWidth, kRows, Calibration::standard());
  const double high = row.simulate_retention(0.7);
  const double low = row.simulate_retention(0.3);
  EXPECT_GT(high, low);
  EXPECT_GT(low, 0.0);
}

TEST(Nem3T2N, RefreshPowerIsNanowattScale) {
  Nem3T2NRow row(kWidth, kRows, Calibration::standard());
  row.store(TernaryWord("10101010"));
  const RefreshMetrics r = row.one_shot_refresh();
  ASSERT_TRUE(r.ok) << r.note;
  EXPECT_GT(r.refresh_power, 0.1e-9);
  EXPECT_LT(r.refresh_power, 1e-6);
}

TEST(Nem3T2N, RefreshOutsideWindowCorruptsState) {
  // V_R above V_PI actuates every relay: stored '0' cells close — corrupt.
  Nem3T2NRow row(kWidth, kRows, Calibration::standard());
  row.store(TernaryWord("10101010"));
  const RefreshMetrics bad = row.refresh_at(/*v_refresh=*/0.8, 0.25);
  EXPECT_FALSE(bad.ok);
}

TEST(Nem3T2N, RefreshBelowWindowLosesOnes) {
  // V_R below V_PO cannot hold closed relays: stored '1's release.
  Nem3T2NRow row(kWidth, kRows, Calibration::standard());
  row.store(TernaryWord("10101010"));
  const RefreshMetrics bad = row.refresh_at(/*v_refresh=*/0.05, 0.25);
  EXPECT_FALSE(bad.ok);
}

TEST(Nem3T2N, SearchDoesNotDisturbStoredState) {
  // Twenty consecutive searches; data must remain intact (relays latched,
  // search voltages are far from the write path).
  Nem3T2NRow row(kWidth, kRows, Calibration::standard());
  const TernaryWord word("11001010");
  row.store(word);
  for (int i = 0; i < 3; ++i) {
    const SearchMetrics m = row.search(flip_bit(word, 1));
    ASSERT_TRUE(m.ok);
    EXPECT_FALSE(m.matched);
  }
  const SearchMetrics hit = row.search(word);
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.matched);
}

// --- 2T2R-specific: variation sensitivity --------------------------------

TEST(Rram2T2R, NominalSenseMarginExists) {
  Rram2T2RRow row(kWidth, kRows, Calibration::standard());
  const TernaryWord word("10101010");
  row.store(word);
  const SearchMetrics mm = row.search(flip_bit(word, 0));
  const SearchMetrics mt = row.search(word);
  ASSERT_TRUE(mm.ok && mt.ok);
  EXPECT_FALSE(mm.matched);
  EXPECT_TRUE(mt.matched);
}

TEST(Rram2T2R, HighVariationCanBreakSensing) {
  // With heavy resistance spread some seeds misclassify — the paper's
  // variation argument. We only assert the mechanism is exercised: across
  // several seeds, behaviour need not be uniform; at minimum the sim runs.
  const TernaryWord word("10101010");
  int failures = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rram2T2RRow row(kWidth, kRows, Calibration::standard());
    row.set_resistance_sigma(1.2);
    row.set_variation_seed(seed);
    row.store(word);
    const SearchMetrics mm = row.search(flip_bit(word, 0));
    const SearchMetrics mt = row.search(word);
    ASSERT_TRUE(mm.ok && mt.ok);
    if (mm.matched || !mt.matched) ++failures;
  }
  SUCCEED() << failures << "/4 seeds misclassified under sigma=1.2";
}

TEST(Rram2T2R, MatchedMatchlineDroopsThroughHrs) {
  // The finite ON/OFF ratio: a matched row's ML visibly droops within the
  // window (would eventually cross the threshold) — unlike SRAM/NEM.
  Rram2T2RRow row(kWidth, kRows, Calibration::standard());
  const TernaryWord word("10101010");
  row.store(word);
  const SearchMetrics m = row.search(word);
  ASSERT_TRUE(m.ok);
  EXPECT_TRUE(m.matched);
  EXPECT_LT(m.ml_min, 0.5);  // droops below the sense level by window end
}

TEST(Nem3T2N, MatchedMatchlineHoldsSolid) {
  Nem3T2NRow row(kWidth, kRows, Calibration::standard());
  const TernaryWord word("10101010");
  row.store(word);
  const SearchMetrics m = row.search(word);
  ASSERT_TRUE(m.ok);
  EXPECT_TRUE(m.matched);
  EXPECT_GT(m.ml_min, 0.9);  // near-zero leakage holds the precharge
}

// --- CMOS DTCAM (conventional dynamic baseline) ---------------------------

TEST(Dtcam5T, RetentionComparableToNem) {
  Dtcam5TRow row(kWidth, kRows, Calibration::standard());
  const double t_ret = row.simulate_retention(Calibration::standard().v_store_one);
  EXPECT_GT(t_ret, 5e-6);
  EXPECT_LT(t_ret, 500e-6);
}

TEST(Dtcam5T, RowRefreshCostExceedsOneShot) {
  Dtcam5TRow dtcam(kWidth, kRows, Calibration::standard());
  dtcam.store(TernaryWord("10101010"));
  const RefreshMetrics rr = dtcam.row_refresh_cost();
  ASSERT_TRUE(rr.ok) << rr.note;

  Nem3T2NRow nem(kWidth, kRows, Calibration::standard());
  nem.store(TernaryWord("10101010"));
  const RefreshMetrics osr = nem.one_shot_refresh();
  ASSERT_TRUE(osr.ok) << osr.note;

  // Row-by-row blocks the array rows× per period; the power comparison
  // includes the per-row energy × rows. One-shot wins on both.
  EXPECT_GT(rr.refresh_power, osr.refresh_power);
  EXPECT_GT(rr.latency * kRows, osr.latency);
}

TEST(Dtcam5T, RetentionGrowsWithStoredLevel) {
  Dtcam5TRow row(kWidth, kRows, Calibration::standard());
  EXPECT_GT(row.simulate_retention(0.9), row.simulate_retention(0.7));
}

// --- Row metadata ----------------------------------------------------------

TEST(TcamRowApi, KindNamesAreDistinct) {
  EXPECT_STRNE(kind_name(TcamKind::Sram16T), kind_name(TcamKind::Nem3T2N));
  EXPECT_STRNE(kind_name(TcamKind::Rram2T2R), kind_name(TcamKind::Fefet2F));
}

TEST(TcamRowApi, StoreRejectsWrongWidth) {
  auto row = make_row(TcamKind::Nem3T2N, 8, 64);
  EXPECT_THROW(row->store(TernaryWord("0101")), std::logic_error);
  EXPECT_THROW(row->write(TernaryWord("0101")), std::logic_error);
}

TEST(TcamRowApi, FailedWriteDoesNotUpdateStored) {
  // Writes into a healthy row always succeed; emulate failure via a
  // mis-calibrated refresh instead — covered above. Here: verify stored()
  // reflects the new word only after ok.
  auto row = make_row(TcamKind::Nem3T2N, 8, 64);
  row->store(TernaryWord("00000000"));
  const WriteMetrics w = row->write(TernaryWord("11111111"));
  ASSERT_TRUE(w.ok);
  EXPECT_EQ(row->stored().to_string(), "11111111");
}

// --- Replays resume at the searchline edge ----------------------------------

class EveryKind : public ::testing::TestWithParam<TcamKind> {};

INSTANTIATE_TEST_SUITE_P(Designs, EveryKind,
                         ::testing::Values(TcamKind::Sram16T, TcamKind::Nem3T2N,
                                           TcamKind::Rram2T2R,
                                           TcamKind::Fefet2F,
                                           TcamKind::Dtcam5T,
                                           TcamKind::Fefet4T2F,
                                           TcamKind::Mram4T2M),
                         kind_param_name);

// Until the searchline edge every search of a template solves the same
// precharge, whatever its key, so a replay resumes from the checkpoint
// its template's last full run took there: its solver cache makes far
// fewer iteration passes than the Newton iterations it reports, which
// count the whole transient (kinds with a longer search window save a
// smaller share). A checkpoint that never validated would leave every
// figure right and only cost time; this is the test that notices. A
// parameter edited in place moves the circuit's state at t = 0, and the
// next search runs in full: one pass per iteration.
TEST_P(EveryKind, ReplayWithANewKeyResumesAtTheSearchlineEdge) {
  constexpr int kResumeWidth = 32;
  SearchTemplate tpl(search_spec_for(GetParam(), Calibration::standard()),
                     kResumeWidth, kRows);
  TernaryWord stored(static_cast<std::size_t>(kResumeWidth), Ternary::One);
  for (std::size_t c = 0; c < stored.size(); ++c) {
    if (c % 3 == 1) stored[c] = Ternary::Zero;
    if (c % 5 == 4) stored[c] = Ternary::X;
  }
  const TernaryWord miss = flip_bit(stored, 0);
  const double strobe = tpl.default_strobe();
  ASSERT_TRUE(tpl.search(stored, stored, strobe).ok);
  std::uint64_t before = solver_passes(tpl);
  const SearchMetrics replay = tpl.search(miss, stored, strobe);
  ASSERT_TRUE(replay.ok) << replay.note;
  EXPECT_FALSE(replay.matched);
  // A replay makes about half the passes (46–56% at this width), the
  // MRAM two thirds: its search window is four times as long (10 ns
  // against 2.5 ns), so the prefix is a smaller share.
  const double share = GetParam() == TcamKind::Mram4T2M ? 0.75 : 0.6;
  EXPECT_LE(static_cast<double>(solver_passes(tpl) - before),
            share * static_cast<double>(replay.newton_iters));

  auto* pchg = dynamic_cast<devices::Mosfet*>(tpl.circuit()->find("Mpchg"));
  ASSERT_NE(pchg, nullptr);
  pchg->shift_vth(0.01);
  before = solver_passes(tpl);
  const SearchMetrics edited = tpl.search(miss, stored, strobe);
  ASSERT_TRUE(edited.ok) << edited.note;
  EXPECT_EQ(solver_passes(tpl) - before, edited.newton_iters);
}

}  // namespace
