#include "spice/AssemblyCache.h"

#include <algorithm>

#include "util/Expect.h"

namespace nemtcam::spice {

void AssemblyCache::replay(std::size_t begin, std::size_t end, double* dst) {
  fast_ = true;
  building_ = false;
  cursor_ = begin;
  end_ = end;
  dst_ = dst;
}

std::vector<double>& AssemblyCache::begin_solve(std::size_t n) {
  step_rhs_.assign(n, 0.0);
  if (has_pattern() && n == n_) {
    std::fill(step_vals_.begin(), step_vals_.end(), 0.0);
    replay(0, solve_len_, step_vals_.data());
    return step_rhs_;
  }
  invalidate();
  n_ = n;
  building_ = true;
  ++stats_.pattern_builds;
  return step_rhs_;
}

bool AssemblyCache::finish_replay() {
  // A fast pass that deviated mid-stream or ended short: drop the stale
  // pattern so the caller's retry runs in build mode.
  const bool replayed = fast_ && cursor_ == end_;
  fast_ = false;
  if (!replayed) invalidate();
  return replayed;
}

bool AssemblyCache::finish_solve() {
  if (!building_) return finish_replay();
  solve_len_ = seq_key_.size();
  return true;
}

std::vector<double>& AssemblyCache::begin_iteration() {
  ++stats_.assemblies;
  rhs_ = step_rhs_;
  if (building_) return rhs_;  // keeps recording after the per-solve calls
  NEMTCAM_EXPECT_MSG(has_pattern(),
                     "AssemblyCache::begin_iteration before finish_solve");
  vals_ = step_vals_;
  replay(solve_len_, seq_key_.size(), vals_.data());
  return rhs_;
}

bool AssemblyCache::finish_iteration() {
  if (!building_) return finish_replay();
  building_ = false;

  // Finalize: distinct (r, c) positions -> CSR, one slot per position.
  std::vector<std::size_t> order(seq_key_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return seq_key_[a] < seq_key_[b];
  });

  row_ptr_.assign(n_ + 1, 0);
  cols_.clear();
  seq_slot_.assign(seq_key_.size(), 0);
  std::size_t prev_key = 0;
  for (const std::size_t i : order) {
    const std::size_t key = seq_key_[i];
    if (cols_.empty() || key != prev_key) {
      cols_.push_back(key % n_);
      ++row_ptr_[key / n_ + 1];
      prev_key = key;
    }
    seq_slot_[i] = cols_.size() - 1;
  }
  for (std::size_t r = 0; r < n_; ++r) row_ptr_[r + 1] += row_ptr_[r];

  // Sum the way a replay does: per-solve contributions in stamp order,
  // then the iteration's on top.
  step_vals_.assign(cols_.size(), 0.0);
  for (std::size_t i = 0; i < solve_len_; ++i)
    step_vals_[seq_slot_[i]] += trip_val_[i];
  vals_ = step_vals_;
  for (std::size_t i = solve_len_; i < seq_key_.size(); ++i)
    vals_[seq_slot_[i]] += trip_val_[i];
  trip_val_.clear();
  trip_val_.shrink_to_fit();
  return true;
}

void AssemblyCache::invalidate() {
  fast_ = false;
  building_ = false;
  cursor_ = 0;
  end_ = 0;
  dst_ = nullptr;
  seq_key_.clear();
  seq_slot_.clear();
  solve_len_ = 0;
  trip_val_.clear();
  row_ptr_.clear();
  cols_.clear();
  step_vals_.clear();
  vals_.clear();
  pivot_order_ = kNoPivotOrder;
}

linalg::SparseLu& AssemblyCache::factorize() {
  NEMTCAM_EXPECT_MSG(has_pattern(), "AssemblyCache::factorize before finish");
  if (pivot_order_ != kNoPivotOrder && lu_.refactorize(view())) {
    ++stats_.refactorizations;
    return lu_;
  }
  pivot_order_ = kNoPivotOrder;
  lu_.factorize(view());  // throws SingularMatrixError on failure
  pivot_order_ = stats_.full_factorizations + stats_.refactorizations;
  ++stats_.full_factorizations;
  return lu_;
}

}  // namespace nemtcam::spice
