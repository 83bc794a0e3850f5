#include <gtest/gtest.h>

#include "core/DynamicTcam.h"
#include "core/EnergyModel.h"
#include "core/TcamModel.h"
#include "core/Ternary.h"
#include "util/Random.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::core;

// --- Ternary / TernaryWord ----------------------------------------------

TEST(Ternary, MatchTable) {
  EXPECT_TRUE(ternary_matches(Ternary::One, Ternary::One));
  EXPECT_TRUE(ternary_matches(Ternary::Zero, Ternary::Zero));
  EXPECT_FALSE(ternary_matches(Ternary::One, Ternary::Zero));
  EXPECT_FALSE(ternary_matches(Ternary::Zero, Ternary::One));
  EXPECT_TRUE(ternary_matches(Ternary::X, Ternary::One));
  EXPECT_TRUE(ternary_matches(Ternary::X, Ternary::Zero));
  EXPECT_TRUE(ternary_matches(Ternary::One, Ternary::X));
  EXPECT_TRUE(ternary_matches(Ternary::Zero, Ternary::X));
  EXPECT_TRUE(ternary_matches(Ternary::X, Ternary::X));
}

TEST(TernaryWord, ParseAndFormatRoundTrip) {
  const TernaryWord w("10X1x*0");
  EXPECT_EQ(w.size(), 7u);
  EXPECT_EQ(w.to_string(), "10X1XX0");
  EXPECT_EQ(w[0], Ternary::One);
  EXPECT_EQ(w[2], Ternary::X);
  EXPECT_EQ(w.count_x(), 3u);
}

TEST(TernaryWord, RejectsBadCharacters) {
  EXPECT_THROW(TernaryWord("10Z"), std::logic_error);
}

TEST(TernaryWord, FromUintMsbFirst) {
  const TernaryWord w = TernaryWord::from_uint(0b1010, 4);
  EXPECT_EQ(w.to_string(), "1010");
  EXPECT_EQ(TernaryWord::from_uint(0, 3).to_string(), "000");
  EXPECT_EQ(TernaryWord::from_uint(255, 8).to_string(), "11111111");
}

TEST(TernaryWord, MatchesWithWildcards) {
  const TernaryWord stored("1X0X");
  EXPECT_TRUE(stored.matches(TernaryWord("1000")));
  EXPECT_TRUE(stored.matches(TernaryWord("1101")));
  EXPECT_FALSE(stored.matches(TernaryWord("0000")));
  EXPECT_FALSE(stored.matches(TernaryWord("1010")));
  // Key-side wildcards also match.
  EXPECT_TRUE(stored.matches(TernaryWord("XXXX")));
  EXPECT_TRUE(TernaryWord("1111").matches(TernaryWord("1X1X")));
}

TEST(TernaryWord, MismatchCount) {
  EXPECT_EQ(TernaryWord("1100").mismatch_count(TernaryWord("1010")), 2u);
  EXPECT_EQ(TernaryWord("1100").mismatch_count(TernaryWord("1100")), 0u);
  EXPECT_EQ(TernaryWord("XXXX").mismatch_count(TernaryWord("1010")), 0u);
}

TEST(TernaryWord, WidthMismatchThrows) {
  EXPECT_THROW(TernaryWord("11").matches(TernaryWord("111")), std::logic_error);
}

TEST(TernaryWord, AllXMatchesEverything) {
  const auto w = TernaryWord::all_x(16);
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const auto key = TernaryWord::from_uint(
        static_cast<std::uint64_t>(rng.uniform_int(0, 65535)), 16);
    EXPECT_TRUE(w.matches(key));
  }
}

// --- TcamModel ------------------------------------------------------------

TEST(TcamModel, WriteSearchErase) {
  TcamModel t(8, 4);
  EXPECT_EQ(t.valid_count(), 0);
  t.write(2, TernaryWord("1010"));
  t.write(5, TernaryWord("10XX"));
  EXPECT_EQ(t.valid_count(), 2);

  const auto hits = t.search(TernaryWord("1010"));
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 2);
  EXPECT_EQ(hits[1], 5);

  EXPECT_EQ(t.search_first(TernaryWord("1011")).value(), 5);
  EXPECT_FALSE(t.search_first(TernaryWord("0000")).has_value());

  t.erase(2);
  EXPECT_FALSE(t.valid(2));
  EXPECT_EQ(t.search(TernaryWord("1010")).size(), 1u);
}

TEST(TcamModel, InvalidRowsNeverMatch) {
  TcamModel t(4, 4);
  t.write(0, TernaryWord::all_x(4));
  t.erase(0);
  EXPECT_TRUE(t.search(TernaryWord("0000")).empty());
}

TEST(TcamModel, FindFreeRow) {
  TcamModel t(3, 2);
  EXPECT_EQ(t.find_free_row().value(), 0);
  t.write(0, TernaryWord("00"));
  t.write(1, TernaryWord("01"));
  EXPECT_EQ(t.find_free_row().value(), 2);
  t.write(2, TernaryWord("10"));
  EXPECT_FALSE(t.find_free_row().has_value());
}

TEST(TcamModel, OutOfRangeThrows) {
  TcamModel t(4, 4);
  EXPECT_THROW(t.write(4, TernaryWord("0000")), std::logic_error);
  EXPECT_THROW(t.write(-1, TernaryWord("0000")), std::logic_error);
  EXPECT_THROW(t.write(0, TernaryWord("00")), std::logic_error);
  EXPECT_THROW(t.search(TernaryWord("00")), std::logic_error);
}

// Property: search result equals brute-force row-by-row matching.
TEST(TcamModel, SearchEqualsBruteForce) {
  util::Rng rng(42);
  TcamModel t(32, 12);
  std::vector<TernaryWord> mirror(32, TernaryWord(12));
  std::vector<bool> valid(32, false);
  for (int i = 0; i < 24; ++i) {
    const int row = rng.uniform_int(0, 31);
    TernaryWord w(12);
    for (std::size_t b = 0; b < 12; ++b) {
      const int v = rng.uniform_int(0, 3);
      w[b] = v == 0 ? Ternary::X : (v % 2 ? Ternary::One : Ternary::Zero);
    }
    t.write(row, w);
    mirror[static_cast<std::size_t>(row)] = w;
    valid[static_cast<std::size_t>(row)] = true;
  }
  for (int trial = 0; trial < 200; ++trial) {
    const auto key = TernaryWord::from_uint(
        static_cast<std::uint64_t>(rng.uniform_int(0, 4095)), 12);
    std::vector<int> expect;
    for (int r = 0; r < 32; ++r)
      if (valid[static_cast<std::size_t>(r)] &&
          mirror[static_cast<std::size_t>(r)].matches(key))
        expect.push_back(r);
    EXPECT_EQ(t.search(key), expect);
  }
}

// --- EnergyModel ------------------------------------------------------------

TEST(EnergyModel, PaperShapeHolds) {
  const EnergyModel sram(TcamTech::Sram16T, 64, 64);
  const EnergyModel nem(TcamTech::Nem3T2N, 64, 64);
  const EnergyModel rram(TcamTech::Rram2T2R, 64, 64);
  const EnergyModel fefet(TcamTech::Fefet2F, 64, 64);

  // Write latency: SRAM fastest, NEM ~2 ns, NVMs ~10 ns.
  EXPECT_LT(sram.write_latency(), nem.write_latency());
  EXPECT_LT(nem.write_latency(), rram.write_latency());
  EXPECT_LT(nem.write_latency(), fefet.write_latency());

  // Write energy: NEM < SRAM < FeFET < RRAM.
  EXPECT_LT(nem.write_energy(), sram.write_energy());
  EXPECT_LT(sram.write_energy(), fefet.write_energy());
  EXPECT_LT(fefet.write_energy(), rram.write_energy());

  // Search latency: NEM fastest.
  EXPECT_LT(nem.search_latency(), rram.search_latency());
  EXPECT_LT(rram.search_latency(), fefet.search_latency());
  EXPECT_LT(fefet.search_latency(), sram.search_latency());

  // Search EDP: NEM best overall.
  EXPECT_LT(nem.search_edp(), sram.search_edp());
  EXPECT_LT(nem.search_edp(), rram.search_edp());
  EXPECT_LT(nem.search_edp(), fefet.search_edp());
}

TEST(EnergyModel, OnlyNemNeedsRefresh) {
  EXPECT_TRUE(EnergyModel(TcamTech::Nem3T2N, 64, 64).needs_refresh());
  EXPECT_FALSE(EnergyModel(TcamTech::Sram16T, 64, 64).needs_refresh());
  EXPECT_FALSE(EnergyModel(TcamTech::Rram2T2R, 64, 64).needs_refresh());
  EXPECT_FALSE(EnergyModel(TcamTech::Fefet2F, 64, 64).needs_refresh());
}

TEST(EnergyModel, EnergyScalesWithGeometry) {
  const EnergyModel small(TcamTech::Nem3T2N, 32, 32);
  const EnergyModel big(TcamTech::Nem3T2N, 64, 64);
  EXPECT_NEAR(big.write_energy() / small.write_energy(), 4.0, 1e-9);
  EXPECT_NEAR(big.search_latency() / small.search_latency(), 2.0, 1e-9);
  EXPECT_NEAR(big.refresh_energy() / small.refresh_energy(), 4.0, 1e-9);
}

TEST(EnergyModel, RefreshPowerIsNanowattScale) {
  const EnergyModel nem(TcamTech::Nem3T2N, 64, 64);
  EXPECT_GT(nem.refresh_power(), 1e-9);
  EXPECT_LT(nem.refresh_power(), 1e-6);
}

// --- DynamicTcam -------------------------------------------------------------

TEST(DynamicTcam, BasicWriteSearch) {
  DynamicTcam t(TcamTech::Nem3T2N, 8, 8);
  t.write(1, TernaryWord("1010XXXX"));
  const auto hits = t.search(TernaryWord("10101111"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(t.ledger().writes, 1u);
  EXPECT_EQ(t.ledger().searches, 1u);
  EXPECT_GT(t.ledger().energy, 0.0);
}

TEST(DynamicTcam, AutoRefreshPreservesData) {
  DynamicTcam t(TcamTech::Nem3T2N, 4, 4, /*auto_refresh=*/true);
  t.write(0, TernaryWord("1100"));
  // Advance well past many retention periods.
  t.advance(1e-3);  // 1 ms ≈ 37 retention periods
  EXPECT_TRUE(t.live(0));
  EXPECT_EQ(t.search(TernaryWord("1100")).size(), 1u);
  EXPECT_GT(t.ledger().refreshes, 30u);
  EXPECT_EQ(t.ledger().retention_losses, 0u);
}

TEST(DynamicTcam, DataDecaysWithoutRefresh) {
  DynamicTcam t(TcamTech::Nem3T2N, 4, 4, /*auto_refresh=*/false);
  t.write(0, TernaryWord("1100"));
  const double retention = t.costs().retention_time();
  t.advance(retention * 0.9);
  EXPECT_TRUE(t.live(0));
  EXPECT_EQ(t.search(TernaryWord("1100")).size(), 1u);
  t.advance(retention * 0.2);
  EXPECT_FALSE(t.live(0));
  EXPECT_TRUE(t.search(TernaryWord("1100")).empty());
  EXPECT_EQ(t.ledger().retention_losses, 1u);
}

TEST(DynamicTcam, ManualOneShotRefreshRearmsAllRows) {
  DynamicTcam t(TcamTech::Nem3T2N, 4, 4, /*auto_refresh=*/false);
  t.write(0, TernaryWord("0000"));
  t.write(1, TernaryWord("1111"));
  const double retention = t.costs().retention_time();
  t.advance(retention * 0.8);
  t.one_shot_refresh();
  t.advance(retention * 0.8);  // would have decayed without the refresh
  EXPECT_TRUE(t.live(0));
  EXPECT_TRUE(t.live(1));
  EXPECT_EQ(t.ledger().refreshes, 1u);
}

TEST(DynamicTcam, RowRefreshOnlyRearmsThatRow) {
  DynamicTcam t(TcamTech::Nem3T2N, 4, 4, /*auto_refresh=*/false);
  t.write(0, TernaryWord("0000"));
  t.write(1, TernaryWord("1111"));
  const double retention = t.costs().retention_time();
  t.advance(retention * 0.9);
  t.refresh_row(0);
  t.advance(retention * 0.5);
  EXPECT_TRUE(t.live(0));
  EXPECT_FALSE(t.live(1));
}

TEST(DynamicTcam, StaticTechnologyNeverDecays) {
  DynamicTcam t(TcamTech::Sram16T, 4, 4, /*auto_refresh=*/false);
  t.write(0, TernaryWord("1010"));
  t.advance(10.0);  // ten seconds
  EXPECT_TRUE(t.live(0));
  EXPECT_EQ(t.ledger().refreshes, 0u);
}

TEST(DynamicTcam, ClockAdvancesWithOperations) {
  DynamicTcam t(TcamTech::Nem3T2N, 4, 4);
  const double t0 = t.now();
  t.write(0, TernaryWord("0000"));
  EXPECT_GT(t.now(), t0);
  const double t1 = t.now();
  t.search(TernaryWord("0000"));
  EXPECT_GT(t.now(), t1);
}

TEST(DynamicTcam, RefreshEnergyAccumulates) {
  DynamicTcam t(TcamTech::Nem3T2N, 64, 64);
  t.write(0, TernaryWord::all_x(64));
  const double e0 = t.ledger().energy;
  t.advance(t.costs().retention_time() * 10.5);
  EXPECT_GE(t.ledger().refreshes, 10u);
  EXPECT_GT(t.ledger().energy, e0);
}

}  // namespace
