// ThreadPool / run_sweep determinism: the parallel sweep must produce
// bit-identical results at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "tcam/Calibration.h"
#include "tcam/Rram2T2RRow.h"
#include "util/Sweep.h"
#include "util/ThreadPool.h"

namespace {

using namespace nemtcam;
using nemtcam::tcam::Calibration;
using nemtcam::tcam::Rram2T2RRow;
using nemtcam::tcam::SearchMetrics;

TEST(ThreadPool, RunsEveryIndexFromTwoCallers) {
  // Calls from different threads run one at a time on the same workers.
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  const auto caller = [&] {
    for (int call = 0; call < 50; ++call)
      pool.parallel_for(0, 10, [&count](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
      });
  };
  std::thread other(caller);
  caller();
  other.join();
  EXPECT_EQ(count.load(), 1000);
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
  // Two trials fail: every trial still runs, and the sweep rethrows the
  // lower index's exception whichever of the two finished first.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    util::SweepOptions opts;
    opts.threads = threads;
    std::atomic<int> runs{0};
    try {
      util::run_sweep<int>(
          8,
          [&runs](std::size_t trial, std::uint64_t) -> int {
            runs.fetch_add(1);
            if (trial == 2) throw std::runtime_error("trial 2 boom");
            if (trial == 6) throw std::runtime_error("trial 6 boom");
            return static_cast<int>(trial);
          },
          opts);
      ADD_FAILURE() << "no exception at threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "trial 2 boom") << "threads=" << threads;
    }
    EXPECT_EQ(runs.load(), 8) << "threads=" << threads;
  }
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

}  // namespace
