#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/Expect.h"
#include "util/Random.h"
#include "util/Stats.h"
#include "util/Table.h"
#include "util/ThreadPool.h"
#include "util/Units.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::literals;

TEST(Units, LiteralsMatchConstants) {
  EXPECT_DOUBLE_EQ(2.0_ns, 2.0 * units::ns);
  EXPECT_DOUBLE_EQ(20.0_aF, 20.0 * units::aF);
  EXPECT_DOUBLE_EQ(1.0_kOhm, 1.0 * units::kOhm);
  EXPECT_DOUBLE_EQ(0.35_pJ, 0.35 * units::pJ);
  EXPECT_DOUBLE_EQ(500.0_mV, 0.5 * units::V);
}

TEST(Expect, ThrowsOnViolation) {
  EXPECT_THROW(NEMTCAM_EXPECT(1 == 2), std::logic_error);
  EXPECT_NO_THROW(NEMTCAM_EXPECT(1 == 1));
  try {
    NEMTCAM_EXPECT_MSG(false, "context message");
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("context message"), std::string::npos);
  }
}

TEST(RunningStats, MeanAndVariance) {
  util::RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  util::RunningStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(util::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 25.0), 2.0);
  EXPECT_DOUBLE_EQ(util::percentile(xs, 62.5), 3.5);
}

TEST(Percentile, UnsortedInputIsHandled) {
  EXPECT_DOUBLE_EQ(util::percentile({5.0, 1.0, 3.0}, 50.0), 3.0);
}

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, NormalMatchesMoments) {
  util::Rng rng(7);
  util::RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(3.0, 0.5));
  EXPECT_NEAR(s.mean(), 3.0, 0.02);
  EXPECT_NEAR(s.stddev(), 0.5, 0.02);
}

TEST(Rng, LognormalMedian) {
  util::Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(rng.lognormal_median(20e3, 0.3));
  EXPECT_NEAR(util::percentile(xs, 50.0), 20e3, 600.0);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Rng, ZeroSigmaIsDeterministic) {
  util::Rng rng(1);
  EXPECT_DOUBLE_EQ(rng.normal(5.0, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(rng.lognormal_median(5.0, 0.0), 5.0);
}

TEST(Table, RendersAlignedRows) {
  util::Table t({"design", "energy"});
  t.add_row({"SRAM", "0.81 pJ"});
  t.add_row({"3T2N", "0.35 pJ"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("design"), std::string::npos);
  EXPECT_NE(s.find("3T2N"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRowWidth) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(SiFormat, PicksSensiblePrefix) {
  EXPECT_EQ(util::si_format(3.5e-13, "J"), "350 fJ");
  EXPECT_EQ(util::si_format(2e-9, "s"), "2 ns");
  EXPECT_EQ(util::si_format(1e3, "Ohm"), "1 kOhm");
  EXPECT_EQ(util::si_format(0.0, "V"), "0 V");
  EXPECT_EQ(util::si_format(19.6e-9, "W"), "19.6 nW");
}

TEST(RatioFormat, FormatsWithSuffix) {
  EXPECT_EQ(util::ratio_format(2.31), "2.31x");
  EXPECT_EQ(util::ratio_format(131.0, 0), "131x");
}

TEST(ThreadPool, ParallelForCoversEveryIndex) {
  util::ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(0, hits.size(),
                    [&](std::size_t i) { hits[i] += static_cast<int>(i); });
  for (std::size_t i = 0; i < hits.size(); ++i)
    ASSERT_EQ(hits[i], static_cast<int>(i));
}

TEST(ThreadPool, ParallelForCoversOddRangeAndSkipsEmptyRange) {
  util::ThreadPool pool(2);
  std::vector<int> hits(37, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) ASSERT_EQ(h, 1);
  pool.parallel_for(5, 5, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, NestedParallelForInsideTaskCompletes) {
  // A parallel_for called from inside fn runs its range inline on the
  // thread that called it, so it cannot deadlock even on a 1-thread pool.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    util::ThreadPool pool(threads);
    std::vector<int> hits(64, 0);
    pool.parallel_for(0, 4, [&](std::size_t outer) {
      pool.parallel_for(0, 16, [&](std::size_t inner) {
        hits[outer * 16 + inner] += 1;
      });
    });
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ThreadPool, ParallelForRethrowsTaskException) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(0, 8,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> n{0};
  pool.parallel_for(0, 8, [&](std::size_t) { ++n; });
  EXPECT_EQ(n.load(), 8);
}

TEST(ThreadPool, DefaultThreadCountCapsEnvironmentValue) {
  // Reads default_thread_count() only: no pool is built from these values.
  const char* saved = std::getenv("NEMTCAM_THREADS");
  const bool was_set = saved != nullptr;
  const std::string restore = was_set ? saved : "";
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t hw_default = hw > 0 ? hw : 1;
  const auto count_at = [](const char* value) {
    ::setenv("NEMTCAM_THREADS", value, 1);
    return util::default_thread_count();
  };
  EXPECT_EQ(count_at("3"), 3u);
  EXPECT_EQ(count_at("0"), hw_default);
  EXPECT_EQ(count_at("-2"), hw_default);
  EXPECT_EQ(count_at("abc"), hw_default);
  EXPECT_EQ(count_at("100000"), 256u);
  EXPECT_EQ(count_at("99999999999999999999"), 256u);  // strtol: LONG_MAX
  if (was_set)
    ::setenv("NEMTCAM_THREADS", restore.c_str(), 1);
  else
    ::unsetenv("NEMTCAM_THREADS");
}

}  // namespace
