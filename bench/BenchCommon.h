// Shared scaffolding for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper: it runs
// the circuit-level experiment through google-benchmark (so wall-clock cost
// is visible and results are attached as counters), then prints the same
// rows/series the paper reports, with the paper's value alongside.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/Ternary.h"
#include "erc/Checker.h"
#include "spice/Transient.h"
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

// Consumes the step-control CLI flags shared by every bench binary —
// --reltol=X / --abstol=X (or the two-argument "--reltol X" form) and
// --no-erc — applying them to the process-wide defaults and removing them
// from argv before benchmark::Initialize rejects them as unknown. Lets any
// ablation bench be rerun at a different accuracy target without
// recompiling; --no-erc skips the pre-simulation ERC pass for benches that
// time deliberately degenerate circuits.
inline void consume_step_control_flags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* a = argv[i];
    double val = 0.0;
    const auto flag_value = [&](const char* name) -> bool {
      const std::size_t len = std::strlen(name);
      if (std::strncmp(a, name, len) != 0) return false;
      if (a[len] == '=') {
        val = std::atof(a + len + 1);
        return true;
      }
      if (a[len] == '\0' && i + 1 < *argc) {
        val = std::atof(argv[++i]);
        return true;
      }
      return false;
    };
    if (std::strcmp(a, "--no-erc") == 0) {
      erc::set_default_enforce(false);
    } else if (flag_value("--reltol") && val > 0.0) {
      spice::set_default_lte_tolerances(val, spice::default_lte_abstol_v());
    } else if (flag_value("--abstol") && val > 0.0) {
      spice::set_default_lte_tolerances(spice::default_lte_reltol(), val);
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
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
