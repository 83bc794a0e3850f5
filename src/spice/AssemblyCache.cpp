#include "spice/AssemblyCache.h"

#include <algorithm>

#include "util/Expect.h"

namespace nemtcam::spice {

void AssemblyCache::begin(std::size_t n) {
  ++stats_.assemblies;
  if (has_pattern() && n == n_) {
    fast_ = true;
    building_ = false;
    cursor_ = 0;
    std::fill(vals_.begin(), vals_.end(), 0.0);
    return;
  }
  invalidate();
  n_ = n;
  fast_ = false;
  building_ = true;
  seq_key_.clear();
  trip_val_.clear();
  ++stats_.pattern_builds;
}

bool AssemblyCache::finish() {
  if (fast_) {
    fast_ = false;
    if (cursor_ == seq_key_.size()) return true;
    invalidate();  // short pass: fewer stamps than recorded
    return false;
  }
  if (!building_) {
    // A fast pass that deviated mid-stream: drop the stale pattern so the
    // caller's retry runs in build mode.
    invalidate();
    return false;
  }
  building_ = false;

  // Finalize: distinct (r, c) positions -> CSR, one slot per position.
  std::vector<std::size_t> order(seq_key_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return seq_key_[a] < seq_key_[b];
  });

  row_ptr_.assign(n_ + 1, 0);
  cols_.clear();
  vals_.clear();
  seq_slot_.assign(seq_key_.size(), 0);
  std::size_t prev_key = 0;
  bool have_prev = false;
  for (const std::size_t i : order) {
    const std::size_t key = seq_key_[i];
    if (!have_prev || key != prev_key) {
      cols_.push_back(key % n_);
      vals_.push_back(0.0);
      ++row_ptr_[key / n_ + 1];
      prev_key = key;
      have_prev = true;
    }
    seq_slot_[i] = vals_.size() - 1;
    vals_.back() += trip_val_[i];
  }
  for (std::size_t r = 0; r < n_; ++r) row_ptr_[r + 1] += row_ptr_[r];
  trip_val_.clear();
  trip_val_.shrink_to_fit();
  return true;
}

void AssemblyCache::invalidate() {
  fast_ = false;
  building_ = false;
  cursor_ = 0;
  seq_key_.clear();
  seq_slot_.clear();
  trip_val_.clear();
  row_ptr_.clear();
  cols_.clear();
  vals_.clear();
  lu_analyzed_ = false;
}

linalg::SparseLu& AssemblyCache::factorize() {
  NEMTCAM_EXPECT_MSG(has_pattern(), "AssemblyCache::factorize before finish");
  if (lu_analyzed_ && lu_.refactorize(view())) {
    ++stats_.refactorizations;
    return lu_;
  }
  lu_analyzed_ = false;
  lu_.factorize(view());  // throws SingularMatrixError on failure
  lu_analyzed_ = true;
  ++stats_.full_factorizations;
  return lu_;
}

}  // namespace nemtcam::spice
