// Full-array simulation: the coupled N×M search against golden values,
// the elaborate-once/replay-many contract at array scale, and row-scoped
// fault injection. All tests here carry the ctest label `array`.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "devices/NemRelay.h"
#include "fault/FaultInjector.h"
#include "hier/Elaborate.h"
#include "tcam/ArrayTemplate.h"
#include "tcam/RowSpecs.h"
#include "tcam/TcamRow.h"

#include "SameSearch.h"

namespace {

using namespace nemtcam;
using core::Ternary;
using core::TernaryWord;
using tcam::ArraySearchMetrics;
using tcam::ArrayTemplate;
using tcam::Calibration;

TernaryWord word_for_row(int r, int width) {
  TernaryWord w(static_cast<std::size_t>(width), Ternary::One);
  for (int c = 0; c < width; ++c) {
    if ((r + c) % 3 == 1) w[static_cast<std::size_t>(c)] = Ternary::Zero;
    if ((r + c) % 5 == 4) w[static_cast<std::size_t>(c)] = Ternary::X;
  }
  return w;
}

// Searches `key` again on `arr`, whose first search `build` gave: every
// row's figures and the energy must come out bit for bit the same.
void expect_replay_equals_build(ArrayTemplate& arr, const TernaryWord& key,
                                const ArraySearchMetrics& build) {
  const ArraySearchMetrics m = arr.search(key);
  ASSERT_TRUE(m.ok) << m.note;
  ASSERT_EQ(m.rows.size(), build.rows.size());
  for (std::size_t r = 0; r < m.rows.size(); ++r) {
    SCOPED_TRACE("replayed row " + std::to_string(r));
    EXPECT_EQ(m.rows[r].matched, build.rows[r].matched);
    EXPECT_EQ(m.rows[r].latency, build.rows[r].latency);
    EXPECT_EQ(m.rows[r].ml_final, build.rows[r].ml_final);
  }
  EXPECT_EQ(m.energy, build.energy);
}

// Golden values of an 8×8 search keyed on row 0's word, captured from the
// monolithic SparseLu solve of the same circuit before the array's
// bordered-block-diagonal solver was deleted. The tolerances sit well
// inside that solver's own agreement bounds with monolithic (1 ps, 2 mV,
// 0.1%): the same circuit on the same LU reproduces these to rounding.
TEST(ArraySearch, MatchesParentMonolithicGoldens) {
  const Calibration& cal = Calibration::standard();
  constexpr int R = 8, W = 8;
  const TernaryWord key = word_for_row(0, W);  // row 0 matches exactly

  const struct {
    const char* name;
    tcam::SearchTemplateSpec spec;
    double energy_fj;
    double latency_ps[R];  // 0 = ML never crossed the sense level
    double ml_final_v[R];
  } kinds[] = {
      {"nem3t2n", tcam::nem3t2n_search_spec(cal), 93.90550559536,
       {0.0, 32.60009484435, 40.99077025132, 0.0, 31.54571297333,
        32.22311994122, 0.0, 31.36466684141},
       {0.8029923500774, 4.469714115744e-09, 9.958976767838e-09,
        0.7399283105981, 3.171739327036e-09, 4.952332495968e-09,
        0.8029892671022, 3.176514228131e-09}},
      {"fefet2f", tcam::fefet2f_search_spec(cal), 153.9558585851,
       {0.0, 53.79205345531, 85.86009142545, 0.0, 53.80150336635,
        53.80150331256, 0.0, 53.80150336635},
       {1.32787318679, 2.26829662142e-09, 4.632257942559e-09,
        1.327873213971, 2.628806651046e-09, 2.628806607598e-09,
        1.327872304921, 2.628806648094e-09}},
      {"dtcam5t", tcam::dtcam5t_search_spec(cal), 84.01362255342,
       {0.0, 62.88456345514, 103.96602984, 0.0, 62.06244649501,
        62.83689224279, 0.0, 62.03268487664},
       {1.055126287686, -1.501608632559e-08, -2.648631941024e-08,
        1.054565018217, -9.810335948729e-09, -1.493290567205e-08,
        1.055125941561, -9.816550542623e-09}},
  };

  for (const auto& kind : kinds) {
    SCOPED_TRACE(kind.name);
    ArrayTemplate arr(kind.spec, R, W);
    for (int r = 0; r < R; ++r) arr.store(r, word_for_row(r, W));
    const ArraySearchMetrics m = arr.search(key);
    ASSERT_TRUE(m.ok) << m.note;
    ASSERT_EQ(m.rows.size(), static_cast<std::size_t>(R));

    EXPECT_GT(m.match_count, 0);
    EXPECT_LT(m.match_count, R);
    for (int r = 0; r < R; ++r) {
      SCOPED_TRACE("row " + std::to_string(r));
      EXPECT_EQ(m.rows[r].matched, arr.stored(r).matches(key));
      EXPECT_NEAR(m.rows[r].latency * 1e12, kind.latency_ps[r], 1e-2);
      EXPECT_NEAR(m.rows[r].ml_final, kind.ml_final_v[r], 1e-4);
    }
    EXPECT_NEAR(m.energy * 1e15, kind.energy_fj, 1e-4 * kind.energy_fj);

    // A same-key replay reproduces the build bit for bit.
    expect_replay_equals_build(arr, key, m);
  }
}

// The same-key replay contract for the kinds without monolithic goldens:
// an 8×8 array's second search with the key that built it reproduces the
// first bit for bit.
TEST(ArrayReplay, SameKeyReplayReproducesBuild) {
  const Calibration& cal = Calibration::standard();
  constexpr int R = 8, W = 8;
  const TernaryWord key = word_for_row(0, W);
  for (const tcam::TcamKind kind :
       {tcam::TcamKind::Sram16T, tcam::TcamKind::Rram2T2R,
        tcam::TcamKind::Fefet4T2F, tcam::TcamKind::Mram4T2M}) {
    SCOPED_TRACE(tcam::kind_name(kind));
    ArrayTemplate arr(tcam::search_spec_for(kind, cal), R, W);
    for (int r = 0; r < R; ++r) arr.store(r, word_for_row(r, W));
    const ArraySearchMetrics m = arr.search(key);
    ASSERT_TRUE(m.ok) << m.note;
    expect_replay_equals_build(arr, key, m);
  }
}

TEST(ArrayReplay, KeyChangeRebindsWithoutReconstruction) {
  const Calibration& cal = Calibration::standard();
  const int R = 4, W = 8;
  ArrayTemplate arr(tcam::nem3t2n_search_spec(cal), R, W);
  for (int r = 0; r < R; ++r) arr.store(r, word_for_row(r, W));

  const ArraySearchMetrics m1 = arr.search(word_for_row(0, W));
  ASSERT_TRUE(m1.ok) << m1.note;
  EXPECT_EQ(arr.builds(), 1u);

  const hier::Stats after_first = hier::stats();
  const ArraySearchMetrics m2 = arr.search(word_for_row(1, W));
  ASSERT_TRUE(m2.ok) << m2.note;
  // Different key, same stored image: waveform rebind only — no circuit
  // rebuild, no new elaborations, no new stamp pattern.
  EXPECT_EQ(arr.builds(), 1u);
  EXPECT_EQ(hier::stats().instances_elaborated,
            after_first.instances_elaborated);
  EXPECT_EQ(m2.stamp_pattern_builds, m1.stamp_pattern_builds);
  // Row 1 stores word_for_row(1): searching it must match row 1.
  EXPECT_TRUE(m2.rows[1].matched);
  EXPECT_FALSE(m2.rows[0].matched);

  // Re-storing the same words keeps the template; a new word rebuilds.
  arr.store(2, word_for_row(2, W));
  (void)arr.search(word_for_row(1, W));
  EXPECT_EQ(arr.builds(), 1u);
  arr.store(2, TernaryWord(static_cast<std::size_t>(W), Ternary::X));
  const ArraySearchMetrics m3 = arr.search(word_for_row(1, W));
  ASSERT_TRUE(m3.ok) << m3.note;
  EXPECT_EQ(arr.builds(), 2u);
  // All-X row 2 matches any key.
  EXPECT_TRUE(m3.rows[2].matched);
}

// ----------------------------------------------------------------- fault

TEST(ArrayFault, TwoLevelScopeTargetsSingleRow) {
  // Unit level: the injector must parse "Xrow<r>.Xcell<c>.<base>" and
  // honour the row coordinate (the flat and one-level forms stay
  // row-agnostic — they come from single-row circuits).
  spice::Circuit ckt;
  const auto g = ckt.ground();
  auto& r0 = ckt.add<devices::NemRelay>("Xrow0.Xcell2.N1", g, ckt.node("a"),
                                        ckt.node("b"), g);
  auto& r1 = ckt.add<devices::NemRelay>("Xrow1.Xcell2.N1", g, ckt.node("c"),
                                        ckt.node("d"), g);
  auto& r1n2 = ckt.add<devices::NemRelay>("Xrow1.Xcell2.N2", g, ckt.node("e"),
                                          ckt.node("f"), g);
  auto& r1c3 = ckt.add<devices::NemRelay>("Xrow1.Xcell3.N1", g, ckt.node("h"),
                                          ckt.node("i"), g);

  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::RelayStuckClosed;
  spec.row = 1;
  spec.col = 2;
  spec.on_n1 = true;
  EXPECT_EQ(injector.apply(ckt, spec), 1);
  EXPECT_TRUE(r1.stuck());
  EXPECT_FALSE(r0.stuck());
  EXPECT_FALSE(r1n2.stuck());
  EXPECT_FALSE(r1c3.stuck());

  // Row-less names keep matching whatever row the spec carries.
  auto& flat = ckt.add<devices::NemRelay>("N1_2", g, ckt.node("j"),
                                          ckt.node("k"), g);
  spec.row = 7;
  EXPECT_EQ(injector.apply(ckt, spec), 1);
  EXPECT_TRUE(flat.stuck());
}

TEST(ArrayFault, InjectedRowFaultFlipsOnlyThatRow) {
  const Calibration& cal = Calibration::standard();
  const int R = 4, W = 4;
  ArrayTemplate arr(tcam::nem3t2n_search_spec(cal), R, W);
  const TernaryWord ones(static_cast<std::size_t>(W), Ternary::One);
  for (int r = 0; r < R; ++r) arr.store(r, ones);
  // Row 2 disagrees with the all-ones key in one bit: its stored-0 relay
  // (N2, drain on SL) closes and discharges the row on a search.
  TernaryWord mismatching = ones;
  mismatching[1] = Ternary::Zero;
  arr.store(2, mismatching);

  const ArraySearchMetrics clean = arr.search(ones);
  ASSERT_TRUE(clean.ok) << clean.note;
  for (int r = 0; r < R; ++r)
    EXPECT_EQ(clean.rows[r].matched, r != 2) << "row " << r;

  // Break that relay's beam in the open position: the discharge path is
  // gone and row 2 now reports a false match. Every other row keeps its
  // own cells — the two-level scope must confine the fault to row 2.
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::RelayStuckOpen;
  spec.row = 2;
  spec.col = 1;
  spec.on_n1 = false;
  ASSERT_NE(arr.fixture(), nullptr);
  EXPECT_EQ(injector.apply(arr.fixture()->circuit(), spec), 1);

  // The replay re-binds stored state; the broken beam must survive the
  // re-seed (NemRelay::set_state is a no-op on stuck devices).
  const ArraySearchMetrics faulty = arr.search(ones);
  ASSERT_TRUE(faulty.ok) << faulty.note;
  EXPECT_EQ(arr.builds(), 1u);  // fault mutation is not a topology change
  for (int r = 0; r < R; ++r) EXPECT_TRUE(faulty.rows[r].matched) << r;
}

// ---------------------------------------------------------------- resume

const tcam::TcamKind kAllKinds[] = {
    tcam::TcamKind::Sram16T,  tcam::TcamKind::Nem3T2N,
    tcam::TcamKind::Rram2T2R, tcam::TcamKind::Fefet2F,
    tcam::TcamKind::Dtcam5T,  tcam::TcamKind::Fefet4T2F,
    tcam::TcamKind::Mram4T2M};

// An array of `rows` × `width` storing word_for_row(r) in row r.
ArrayTemplate stored_array(tcam::TcamKind kind, int rows, int width) {
  ArrayTemplate arr(tcam::search_spec_for(kind, Calibration::standard()),
                    rows, width);
  for (int r = 0; r < rows; ++r) arr.store(r, word_for_row(r, width));
  return arr;
}

// A warm array's search with a new key resumes at the searchline edge from
// the checkpoint its first search took, and reports exactly what a fresh
// array's first search with that key reports: 8×8 arrays of every kind.
TEST(ArrayResume, ResumedSearchEqualsFreshArrayBitForBit) {
  constexpr int R = 8, W = 8;
  for (const tcam::TcamKind kind : kAllKinds) {
    SCOPED_TRACE(tcam::kind_name(kind));
    ArrayTemplate warm = stored_array(kind, R, W);
    ASSERT_TRUE(warm.search(word_for_row(0, W)).ok);
    for (const int key_row : {1, 6}) {
      const TernaryWord key = word_for_row(key_row, W);
      ArrayTemplate fresh = stored_array(kind, R, W);
      const ArraySearchMetrics ref = fresh.search(key);
      const std::uint64_t before = tcam::solver_passes(warm);
      const ArraySearchMetrics m = warm.search(key);
      EXPECT_LT(tcam::solver_passes(warm) - before, m.newton_iters);
      tcam::expect_same_search(m, ref);
    }
  }
}

// The same for one bank of the size perfbench's array_search searches: a
// 24×24 3T2N array.
TEST(ArrayResume, Resumed24x24BankEqualsFreshBank) {
  constexpr int N = 24;
  ArrayTemplate warm = stored_array(tcam::TcamKind::Nem3T2N, N, N);
  ASSERT_TRUE(warm.search(word_for_row(0, N)).ok);
  const TernaryWord key = word_for_row(7, N);
  ArrayTemplate fresh = stored_array(tcam::TcamKind::Nem3T2N, N, N);
  const std::uint64_t before = tcam::solver_passes(warm);
  const ArraySearchMetrics m = warm.search(key);
  EXPECT_LT(tcam::solver_passes(warm) - before, m.newton_iters);
  tcam::expect_same_search(m, fresh.search(key));
}

// Every fault the injector applies edits devices in place, which changes
// the circuit's state at t = 0: the warm array's next search runs in full
// (one solver pass per reported Newton iteration) and equals a fresh array
// that got the same fault before its first search. The faulted relay, N2
// of a stored '1', holds no gate charge, so sticking it after a search
// leaves it in the state a fresh array's sticks it in.
TEST(ArrayResume, EveryFaultKindForcesAFullRun) {
  constexpr int R = 4, W = 4;
  const TernaryWord key0 = word_for_row(0, W);
  const TernaryWord key1 = word_for_row(2, W);
  for (const fault::FaultKind kind :
       {fault::FaultKind::RelayStuckClosed, fault::FaultKind::RelayStuckOpen,
        fault::FaultKind::ContactDrift, fault::FaultKind::GateLeak,
        fault::FaultKind::MosVthOutlier}) {
    SCOPED_TRACE(fault::fault_kind_name(kind));
    fault::FaultSpec spec;
    spec.kind = kind;
    spec.row = 2;
    spec.col = 1;
    spec.on_n1 = false;
    spec.positive = true;
    const fault::FaultInjector injector;

    ArrayTemplate warm = stored_array(tcam::TcamKind::Nem3T2N, R, W);
    ASSERT_TRUE(warm.search(key0).ok);
    ASSERT_GT(injector.apply(warm.fixture()->circuit(), spec), 0);
    const std::uint64_t before = tcam::solver_passes(warm);
    const ArraySearchMetrics m = warm.search(key1);
    EXPECT_EQ(tcam::solver_passes(warm) - before, m.newton_iters);

    ArrayTemplate fresh = stored_array(tcam::TcamKind::Nem3T2N, R, W);
    fresh.ensure_built(key1);
    injector.apply(fresh.fixture()->circuit(), spec);
    ArraySearchMetrics ref = fresh.search(key1);
    // A gate leak is a new stamp: the warm array re-records its pattern
    // once, where the fresh one recorded it with the leak in.
    if (kind == fault::FaultKind::GateLeak) ++ref.stamp_pattern_builds;
    tcam::expect_same_search(m, ref);
  }
}

// A stuck relay keeps its gate charge from one search to the next: the
// binder's NemRelay::set_state leaves a pinned beam alone, and no reset
// clears the charge. So the search after the one that stuck it starts
// from yet another state and must run in full too, on the same pivot
// order: what moved is the state at t = 0. (A fresh array cannot be the
// reference here: its stuck relay starts without the charge.)
TEST(ArrayResume, StuckRelayGateChargeCarriesOverAndForcesAFullRun) {
  constexpr int R = 4, W = 4;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::RelayStuckClosed;
  spec.row = 1;
  spec.col = 2;
  spec.on_n1 = true;

  ArrayTemplate warm = stored_array(tcam::TcamKind::Nem3T2N, R, W);
  ASSERT_TRUE(warm.search(word_for_row(0, W)).ok);
  ASSERT_EQ(fault::FaultInjector().apply(warm.fixture()->circuit(), spec), 1);
  const spice::AssemblyCache& cache = warm.fixture()->circuit().solver_cache();
  const std::uint64_t pivots = cache.pivot_order();
  for (const int key_row : {2, 3}) {
    SCOPED_TRACE("key of row " + std::to_string(key_row));
    const std::uint64_t before = tcam::solver_passes(warm);
    const ArraySearchMetrics m = warm.search(word_for_row(key_row, W));
    ASSERT_TRUE(m.ok) << m.note;
    EXPECT_EQ(tcam::solver_passes(warm) - before, m.newton_iters);
    EXPECT_EQ(cache.pivot_order(), pivots);
  }
}

}  // namespace
