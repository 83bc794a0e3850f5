// Fixed-pattern MNA assembly reused across Newton iterations and time
// steps.
//
// Device stamping is deterministic for a fixed circuit topology: every
// solve issues the same sequence of (row, col) matrix contributions, only
// the values change. A Newton solve assembles in two passes (see
// Device::stamp_fixed and Device::stamp):
//  - the per-solve pass, once per solve, stamps what the solve holds
//    fixed into a step value array and a step right-hand side;
//  - each iteration's pass starts from copies of both and adds only the
//    iterate-dependent stamps.
//
// The first solve after a (re)build runs in build mode: both passes
// record their sequences and values (keeping exact zeros: a conductance
// that happens to be 0 this time still owns its slot), and the end of the
// iteration pass finalizes a CSR pattern with one value slot per distinct
// position plus a per-call slot map. Every later pass just replays its
// sequence with one compare and one add per stamp call — no allocation,
// no sort, no merge. A build sums exactly as a replay does: the per-solve
// contributions in stamp order from zero, then the iteration's in stamp
// order on top, so a build and a replay of the same stamps agree bit for
// bit.
//
// If a device ever deviates from the recorded sequence in either pass
// (e.g. the circuit switches between DC and transient stamping, which
// opens capacitors — a per-solve change), the pass is flagged, the
// pattern dropped, and the caller re-stamps both passes in build mode —
// correctness never depends on the pattern staying fixed.
//
// The cache also owns the SparseLu for the assembled system and keeps its
// symbolic analysis alive across solves: factorize() first attempts the
// cheap numeric refactorization and falls back to a full factorization
// (fresh pivot order) when a reused pivot degenerates. Every circuit —
// a single row or a coupled N×M array — solves through it.
#pragma once

#include <cstdint>
#include <vector>

#include "linalg/SparseLu.h"

namespace nemtcam::linalg {
class BbdSolver;
}

namespace nemtcam::spice {

class AssemblyCache {
 public:
  struct Stats {
    std::uint64_t assemblies = 0;          // iteration passes (Newton iterations)
    std::uint64_t pattern_builds = 0;      // build-mode passes
    std::uint64_t full_factorizations = 0;
    std::uint64_t refactorizations = 0;
    // Read only by perfbench/driver.cpp; remove at the next benchmark change.
    std::uint64_t bbd_factorizations = 0;
    std::uint64_t bbd_refactorizations = 0;
    std::uint64_t bbd_fallbacks = 0;
  };

  // Starts the per-solve pass over an n-unknown system. Returns the step
  // right-hand side (zeroed) that the pass stamps into.
  std::vector<double>& begin_solve(std::size_t n);

  // Ends the per-solve pass. Returns false when a fast pass deviated from
  // the recorded pattern — the pattern is dropped and the caller must redo
  // the pass (which will run in build mode).
  bool finish_solve();

  // Starts one iteration's pass: the assembled values and the returned
  // right-hand side start as copies of the step values and step RHS.
  std::vector<double>& begin_iteration();

  // Ends the iteration's pass. Returns false when a fast pass deviated
  // from the recorded pattern — the pattern is dropped and the caller must
  // redo both passes (which will run in build mode). A build pass
  // finalizes the CSR pattern and always succeeds.
  bool finish_iteration();

  // One matrix contribution; accumulates at (r, c).
  void add(std::size_t r, std::size_t c, double v) {
    if (fast_) {
      if (cursor_ < end_ && seq_key_[cursor_] == r * n_ + c) {
        dst_[seq_slot_[cursor_++]] += v;
      } else {
        fast_ = false;  // pattern changed; pass is void
      }
      return;
    }
    if (building_) {
      seq_key_.push_back(r * n_ + c);
      trip_val_.push_back(v);
    }
  }

  bool has_pattern() const noexcept { return !row_ptr_.empty(); }
  // Drops the pattern and the factorization (topology changed).
  void invalidate();

  // View of the assembled matrix (valid after a successful
  // finish_iteration()).
  linalg::CsrView view() const noexcept {
    return {n_, row_ptr_.data(), cols_.data(), vals_.data()};
  }

  // Factorizes the assembled system, reusing the symbolic analysis when
  // possible. Throws linalg::SingularMatrixError like SparseLu.
  linalg::SparseLu& factorize();

  static constexpr std::uint64_t kNoPivotOrder = ~std::uint64_t{0};
  // Names the LU pivot order factorize() reuses: how many factorizations
  // (full and re-) this cache made before the full one that chose it, or
  // kNoPivotOrder when it holds none (no factorization yet, or dropped by
  // invalidate() or a singular full factorization). While it keeps one
  // value every factorization reuses one pivot order, and a refactor over
  // that order reproduces the full factorization that chose it bit for
  // bit — what a checkpointed transient rests on (tcam::ArrayFixture).
  std::uint64_t pivot_order() const noexcept { return pivot_order_; }

  // Read only by perfbench/driver.cpp; remove at the next benchmark change.
  const linalg::BbdSolver* bbd() const noexcept { return nullptr; }

  const Stats& stats() const noexcept { return stats_; }

 private:
  // Starts replaying the recorded calls [begin, end) into `dst`.
  void replay(std::size_t begin, std::size_t end, double* dst);
  // Ends a replayed pass; false (pattern dropped) when it deviated.
  bool finish_replay();

  std::size_t n_ = 0;
  bool fast_ = false;      // replaying the recorded sequence
  bool building_ = false;  // recording a new sequence
  std::size_t cursor_ = 0;
  std::size_t end_ = 0;        // end of the replayed part of the sequence
  double* dst_ = nullptr;      // value array the replayed part adds into

  // Recorded stamp sequence: flattened (r, c) key and CSR slot per call.
  // The per-solve pass's calls come first, [0, solve_len_); the
  // iteration's follow.
  std::vector<std::size_t> seq_key_;
  std::vector<std::size_t> seq_slot_;
  std::size_t solve_len_ = 0;
  std::vector<double> trip_val_;  // build-pass values, aligned with seq_key_

  // Fixed CSR pattern, the per-solve step values and the per-iteration
  // assembled values.
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> cols_;
  std::vector<double> step_vals_;
  std::vector<double> vals_;

  // Step right-hand side (per-solve pass) and the iteration's.
  std::vector<double> step_rhs_;
  std::vector<double> rhs_;

  linalg::SparseLu lu_;
  // lu_ holds a symbolic analysis of this pattern unless kNoPivotOrder.
  std::uint64_t pivot_order_ = kNoPivotOrder;

  Stats stats_;
};

}  // namespace nemtcam::spice
