// ThreadPool / run_sweep determinism, plus solver fast-path equivalence:
// the parallel sweep must produce bit-identical results at any thread
// count, and the assembly-cache Newton path must agree with the
// rebuild-everything path on a real TCAM transaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "devices/Rram.h"
#include "spice/Transient.h"
#include "tcam/Calibration.h"
#include "tcam/RowSpecs.h"
#include "tcam/Rram2T2RRow.h"
#include "util/Sweep.h"
#include "util/ThreadPool.h"

namespace {

using namespace nemtcam;
using nemtcam::tcam::Calibration;
using nemtcam::tcam::Rram2T2RRow;
using nemtcam::tcam::SearchMetrics;

TEST(ThreadPool, RunsEveryTask) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 500; ++i)
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturnsImmediately) {
  util::ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(RunSweep, SeedsDependOnlyOnTrialIndex) {
  const auto a = util::sweep_trial_seed(42, 7);
  const auto b = util::sweep_trial_seed(42, 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(util::sweep_trial_seed(42, 8), a);
  EXPECT_NE(util::sweep_trial_seed(43, 7), a);
}

TEST(RunSweep, ResultsAreOrderedAndThreadCountInvariant) {
  const auto body = [](std::size_t trial, std::uint64_t seed) {
    // Cheap but seed-sensitive computation.
    return static_cast<double>(seed % 1000003) + 1e-3 * static_cast<double>(trial);
  };
  util::SweepOptions serial;
  serial.threads = 1;
  util::SweepOptions parallel;
  parallel.threads = 4;
  const auto r1 = util::run_sweep<double>(64, body, serial);
  const auto r4 = util::run_sweep<double>(64, body, parallel);
  ASSERT_EQ(r1.size(), 64u);
  EXPECT_EQ(r1, r4);  // bit-identical, not just close
}

TEST(RunSweep, PropagatesTrialExceptions) {
  util::SweepOptions opts;
  opts.threads = 3;
  EXPECT_THROW(
      util::run_sweep<int>(
          8,
          [](std::size_t trial, std::uint64_t) -> int {
            if (trial == 5) throw std::runtime_error("trial 5 boom");
            return static_cast<int>(trial);
          },
          opts),
      std::runtime_error);
}

TEST(RunSweepGuarded, PoisonedItemYieldsPerIndexFailureRecord) {
  const auto body = [](std::size_t trial, std::uint64_t) -> int {
    if (trial == 5) throw std::runtime_error("trial 5 boom");
    return static_cast<int>(trial) * 10;
  };
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    util::SweepOptions opts;
    opts.threads = threads;
    const auto items = util::run_sweep_guarded<int>(8, body, opts);
    ASSERT_EQ(items.size(), 8u);
    std::size_t ok_count = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i == 5) {
        EXPECT_FALSE(items[i].ok);
        EXPECT_EQ(items[i].error, "trial 5 boom");
        continue;
      }
      EXPECT_TRUE(items[i].ok);
      EXPECT_EQ(items[i].value, static_cast<int>(i) * 10);
      ++ok_count;
    }
    EXPECT_EQ(ok_count, 7u);  // N−1 usable results
  }
}

// The real consumer: a small RRAM variation Monte-Carlo, serial vs
// pooled. Every trial builds its own circuit and derives its variation
// seed from the trial index alone, so errors and margins must agree
// exactly between thread counts.
TEST(RunSweep, RramVariationSweepIsThreadCountInvariant) {
  struct Outcome {
    int errors;
    double ml_min_match;
    bool operator==(const Outcome& o) const {
      return errors == o.errors && ml_min_match == o.ml_min_match;
    }
  };
  const auto trial_body = [](std::size_t trial, std::uint64_t) {
    Rram2T2RRow row(8, 16, Calibration::standard());
    row.set_resistance_sigma(0.6);
    row.set_variation_seed(static_cast<std::uint64_t>(trial) + 1);
    core::TernaryWord word(8);
    for (std::size_t i = 0; i < 8; ++i)
      word[i] = (i % 2) ? core::Ternary::Zero : core::Ternary::One;
    row.store(word);
    core::TernaryWord miss = word;
    miss[0] = core::Ternary::Zero;
    const SearchMetrics mm = row.search(miss);
    const SearchMetrics mt = row.search(word);
    Outcome out{0, mt.ml_min};
    if (!mm.ok || !mt.ok || mm.matched || !mt.matched) out.errors = 1;
    return out;
  };
  util::SweepOptions serial;
  serial.threads = 1;
  util::SweepOptions pooled;
  pooled.threads = 3;
  const auto r1 = util::run_sweep<Outcome>(4, trial_body, serial);
  const auto rn = util::run_sweep<Outcome>(4, trial_body, pooled);
  ASSERT_EQ(r1.size(), rn.size());
  for (std::size_t i = 0; i < r1.size(); ++i) EXPECT_TRUE(r1[i] == rn[i]);
}

// Assembly-cache Newton path vs the rebuild-and-refactorize path
// (NewtonOptions::use_assembly_cache = false) on the same elaborated
// search circuit. The two paths may pick different (equally valid) pivot
// sequences, so agreement is to solver tolerance, not bitwise.
TEST(SolverFastPath, MatchesLegacyNewtonPathOnTcamSearch) {
  const Calibration cal = Calibration::standard();
  tcam::SearchTemplate tpl(
      tcam::search_spec_for(tcam::TcamKind::Rram2T2R, cal), 8, 16);
  core::TernaryWord word(8);
  for (std::size_t i = 0; i < 8; ++i)
    word[i] = (i % 2) ? core::Ternary::Zero : core::Ternary::One;
  // The first search elaborates the circuit and binds the stored word.
  ASSERT_TRUE(tpl.search(word, word, tpl.default_strobe()).ok);
  spice::Circuit& ckt = *tpl.circuit();
  const spice::NodeId ml = ckt.node("ml");

  struct Run {
    bool finished;
    double ml_min;
    double ml_final;
    double energy;
  };
  const auto run_one = [&](bool use_cache) {
    // Re-seed the stored word: the precharged ML nudges every branch's
    // filament during a search, so each run starts from the bound states.
    ckt.reset_device_states();
    for (std::size_t i = 0; i < 8; ++i) {
      const Rram2T2RRow::RramStates st = Rram2T2RRow::states_for(word[i]);
      const std::string cell = "Xcell" + std::to_string(i) + ".";
      dynamic_cast<devices::Rram&>(*ckt.find(cell + "Ra"))
          .set_state(st.a_lrs ? 1.0 : 0.0);
      dynamic_cast<devices::Rram&>(*ckt.find(cell + "Rb"))
          .set_state(st.b_lrs ? 1.0 : 0.0);
    }
    spice::TransientOptions opts =
        spice::step_defaults(cal.t_precharge + cal.t_search_window);
    opts.newton.use_assembly_cache = use_cache;
    const spice::TransientResult r = spice::run_transient(ckt, opts);
    if (!r.finished) return Run{false, 0.0, 0.0, 0.0};
    const spice::Trace tr = r.node_trace(ml);
    return Run{true, *std::min_element(tr.values().begin(), tr.values().end()),
               tr.back(), r.total_source_energy()};
  };
  const Run fast = run_one(true);
  const Run legacy = run_one(false);

  ASSERT_TRUE(fast.finished);
  ASSERT_TRUE(legacy.finished);
  EXPECT_EQ(fast.ml_final > cal.ml_sense_level,
            legacy.ml_final > cal.ml_sense_level);
  EXPECT_NEAR(fast.ml_min, legacy.ml_min, 1e-6);
  EXPECT_NEAR(fast.ml_final, legacy.ml_final, 1e-6);
  EXPECT_NEAR(fast.energy, legacy.energy, 1e-6 * std::abs(legacy.energy) + 1e-18);
}

}  // namespace
