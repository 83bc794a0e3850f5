// Bit-for-bit equality of two searches: every figure and counter a row or
// an array search reports. A search that resumed from its template's
// checkpoint must equal the full run of a fresh template, figure for
// figure and counter for counter.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "tcam/ArrayTemplate.h"
#include "tcam/Metrics.h"
#include "tcam/SearchTemplate.h"

namespace nemtcam::tcam {

inline void expect_same_search(const SearchMetrics& got,
                               const SearchMetrics& ref) {
  ASSERT_TRUE(got.ok) << got.note;
  ASSERT_TRUE(ref.ok) << ref.note;
  EXPECT_EQ(got.matched, ref.matched);
  EXPECT_EQ(got.latency, ref.latency);
  EXPECT_EQ(got.energy, ref.energy);
  EXPECT_EQ(got.ml_final, ref.ml_final);
  EXPECT_EQ(got.ml_min, ref.ml_min);
  EXPECT_EQ(got.steps, ref.steps);
  EXPECT_EQ(got.steps_rejected, ref.steps_rejected);
  EXPECT_EQ(got.newton_iters, ref.newton_iters);
  EXPECT_EQ(got.erc_errors, ref.erc_errors);
  EXPECT_EQ(got.erc_warnings, ref.erc_warnings);
  EXPECT_EQ(got.stamp_pattern_builds, ref.stamp_pattern_builds);
}

inline void expect_same_search(const ArraySearchMetrics& got,
                               const ArraySearchMetrics& ref) {
  ASSERT_TRUE(got.ok) << got.note;
  ASSERT_TRUE(ref.ok) << ref.note;
  ASSERT_EQ(got.rows.size(), ref.rows.size());
  for (std::size_t r = 0; r < got.rows.size(); ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    EXPECT_EQ(got.rows[r].matched, ref.rows[r].matched);
    EXPECT_EQ(got.rows[r].latency, ref.rows[r].latency);
    EXPECT_EQ(got.rows[r].ml_final, ref.rows[r].ml_final);
    EXPECT_EQ(got.rows[r].ml_min, ref.rows[r].ml_min);
  }
  EXPECT_EQ(got.match_count, ref.match_count);
  EXPECT_EQ(got.energy, ref.energy);
  EXPECT_EQ(got.steps, ref.steps);
  EXPECT_EQ(got.steps_rejected, ref.steps_rejected);
  EXPECT_EQ(got.newton_iters, ref.newton_iters);
  EXPECT_EQ(got.erc_errors, ref.erc_errors);
  EXPECT_EQ(got.erc_warnings, ref.erc_warnings);
  EXPECT_EQ(got.stamp_pattern_builds, ref.stamp_pattern_builds);
}

// Newton iteration passes the template's solver cache has made so far: a
// search that ran in full adds exactly its newton_iters, a resumed one
// fewer.
inline std::uint64_t solver_passes(SearchTemplate& tpl) {
  return tpl.circuit()->solver_cache().stats().assemblies;
}

inline std::uint64_t solver_passes(ArrayTemplate& arr) {
  return arr.fixture()->circuit().solver_cache().stats().assemblies;
}

}  // namespace nemtcam::tcam
