// Shared scaffolding for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper: it runs
// the circuit-level experiment through google-benchmark (so wall-clock cost
// is visible and results are attached as counters), then prints the same
// rows/series the paper reports, with the paper's value alongside.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/Ternary.h"
#include "tcam/TcamRow.h"
#include "util/Table.h"

namespace nemtcam::bench {

inline constexpr int kWidth = 64;
inline constexpr int kRows = 64;

inline const std::vector<tcam::TcamKind>& all_kinds() {
  static const std::vector<tcam::TcamKind> kinds = {
      tcam::TcamKind::Sram16T, tcam::TcamKind::Nem3T2N,
      tcam::TcamKind::Rram2T2R, tcam::TcamKind::Fefet2F};
  return kinds;
}

// Every row kind, in TcamKind order.
inline const std::vector<tcam::TcamKind>& seven_kinds() {
  static const std::vector<tcam::TcamKind> kinds = {
      tcam::TcamKind::Sram16T,  tcam::TcamKind::Nem3T2N,
      tcam::TcamKind::Rram2T2R, tcam::TcamKind::Fefet2F,
      tcam::TcamKind::Dtcam5T,  tcam::TcamKind::Fefet4T2F,
      tcam::TcamKind::Mram4T2M};
  return kinds;
}

// Alternating 1010… word of the given width.
inline core::TernaryWord checker_word(int width) {
  core::TernaryWord w(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i)
    w[static_cast<std::size_t>(i)] =
        (i % 2) ? core::Ternary::Zero : core::Ternary::One;
  return w;
}

inline core::TernaryWord complement_word(const core::TernaryWord& w) {
  core::TernaryWord out(w.size());
  for (std::size_t i = 0; i < w.size(); ++i)
    out[i] = (w[i] == core::Ternary::One) ? core::Ternary::Zero
                                          : core::Ternary::One;
  return out;
}

// Worst-case search key: matches everywhere except bit 0.
inline core::TernaryWord one_bit_mismatch_key(const core::TernaryWord& w) {
  core::TernaryWord key = w;
  key[0] = (key[0] == core::Ternary::One) ? core::Ternary::Zero
                                          : core::Ternary::One;
  return key;
}

// google-benchmark can invoke a benchmark function more than once even at
// Iterations(1) (warm-up/estimation runs); benches that accumulate sweep
// points into a global vector must replace the row for an already-seen
// sweep key instead of appending a duplicate.
template <typename P, typename K>
void upsert_point(std::vector<P>& points, const P& pt, K P::*key) {
  for (auto& p : points) {
    if (p.*key == pt.*key) {
      p = pt;
      return;
    }
  }
  points.push_back(pt);
}

}  // namespace nemtcam::bench
