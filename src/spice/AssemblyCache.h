// Fixed-pattern MNA assembly reused across Newton iterations and time
// steps.
//
// Device stamping is deterministic for a fixed circuit topology: every
// iteration issues the same sequence of (row, col) matrix contributions,
// only the values change. The first assembly after a (re)build runs in
// build mode — it records that sequence, accumulates triplets (keeping
// exact zeros: a conductance that happens to be 0 this iteration still
// owns its slot), and finalizes a CSR pattern with one value slot per
// distinct position plus a per-call slot map. Every later assembly just
// zeroes the value array and replays the sequence with one compare and
// one add per stamp call — no allocation, no sort, no merge.
//
// If a device ever deviates from the recorded sequence (e.g. the circuit
// switches between DC and transient stamping, which opens capacitors),
// the pass is flagged, the pattern dropped, and the caller re-stamps in
// build mode — correctness never depends on the pattern staying fixed.
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
    std::uint64_t assemblies = 0;          // begin() calls
    std::uint64_t pattern_builds = 0;      // build-mode passes
    std::uint64_t full_factorizations = 0;
    std::uint64_t refactorizations = 0;
    // Read only by perfbench/driver.cpp; remove at the next benchmark change.
    std::uint64_t bbd_factorizations = 0;
    std::uint64_t bbd_refactorizations = 0;
    std::uint64_t bbd_fallbacks = 0;
  };

  // Starts one assembly pass over an n-unknown system.
  void begin(std::size_t n);

  // One matrix contribution; accumulates at (r, c).
  void add(std::size_t r, std::size_t c, double v) {
    if (fast_) {
      if (cursor_ < seq_key_.size() && seq_key_[cursor_] == r * n_ + c) {
        vals_[seq_slot_[cursor_++]] += v;
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

  // Ends the pass. Returns false when a fast pass deviated from the
  // recorded pattern — the pattern is dropped and the caller must redo
  // the pass (which will run in build mode). A build pass finalizes the
  // CSR pattern and always succeeds.
  bool finish();

  bool has_pattern() const noexcept { return !row_ptr_.empty(); }
  // Drops the pattern and the factorization (topology changed).
  void invalidate();

  // View of the assembled matrix (valid after a successful finish()).
  linalg::CsrView view() const noexcept {
    return {n_, row_ptr_.data(), cols_.data(), vals_.data()};
  }

  // Factorizes the assembled system, reusing the symbolic analysis when
  // possible. Throws linalg::SingularMatrixError like SparseLu.
  linalg::SparseLu& factorize();

  // Read only by perfbench/driver.cpp; remove at the next benchmark change.
  const linalg::BbdSolver* bbd() const noexcept { return nullptr; }

  const Stats& stats() const noexcept { return stats_; }

 private:
  std::size_t n_ = 0;
  bool fast_ = false;      // replaying the recorded sequence
  bool building_ = false;  // recording a new sequence
  std::size_t cursor_ = 0;

  // Recorded stamp sequence: flattened (r, c) key and CSR slot per call.
  std::vector<std::size_t> seq_key_;
  std::vector<std::size_t> seq_slot_;
  std::vector<double> trip_val_;  // build-pass values, aligned with seq_key_

  // Fixed CSR pattern + the per-pass value array.
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> cols_;
  std::vector<double> vals_;

  linalg::SparseLu lu_;
  bool lu_analyzed_ = false;  // lu_ holds a symbolic analysis of this pattern

  Stats stats_;
};

}  // namespace nemtcam::spice
