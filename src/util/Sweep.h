// Deterministic parallel sweep: run N independent trials on a fresh
// ThreadPool's parallel_for (inline when one thread is asked for) and
// collect results in trial order.
//
// Determinism contract: each trial receives a seed derived only from
// (base_seed, trial index) via a splitmix64 mix, and results land in a
// pre-sized vector slot — so the output is bit-identical for any thread
// count, including the serial fallback. The trial body must not share
// mutable state between trials (one Circuit per trial, never one Circuit
// on many threads — see Circuit::solver_cache). Failures are kept per
// slot as well: run_sweep runs every trial and then rethrows the first
// failure by trial index, run_sweep_guarded returns one message per slot.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "util/Expect.h"
#include "util/ThreadPool.h"

namespace nemtcam::util {

struct SweepOptions {
  // 0 → default_thread_count(). 1 runs inline on the calling thread.
  std::size_t threads = 0;
  std::uint64_t base_seed = 0x9e3779b97f4a7c15ull;
};

// splitmix64 finalizer: decorrelates consecutive trial indices into
// independent-looking 64-bit seeds.
inline std::uint64_t sweep_trial_seed(std::uint64_t base_seed,
                                      std::size_t trial) {
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (trial + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace detail {

// Runs trial(i) for every i in [0, n_trials): inline when one thread is
// asked for or there is at most one trial, else on a pool of
// min(threads, n_trials) workers plus the calling thread.
inline void run_trials(std::size_t n_trials, std::size_t threads,
                       const std::function<void(std::size_t)>& trial) {
  if (threads == 0) threads = default_thread_count();
  if (threads == 1 || n_trials <= 1) {
    for (std::size_t i = 0; i < n_trials; ++i) trial(i);
    return;
  }
  ThreadPool(std::min(threads, n_trials)).parallel_for(0, n_trials, trial);
}

}  // namespace detail

// Runs body(trial, seed) for trial in [0, n_trials) and returns the
// results ordered by trial index. Every trial runs; then the first
// exception by trial index is rethrown on the calling thread.
template <typename R>
std::vector<R> run_sweep(std::size_t n_trials,
                         const std::function<R(std::size_t, std::uint64_t)>& body,
                         const SweepOptions& opts = {}) {
  std::vector<R> results(n_trials);
  std::vector<std::exception_ptr> errors(n_trials);
  detail::run_trials(n_trials, opts.threads, [&](std::size_t i) {
    try {
      results[i] = body(i, sweep_trial_seed(opts.base_seed, i));
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  return results;
}

// Result slot of one guarded trial: the value when the trial returned,
// or the captured failure otherwise.
template <typename R>
struct SweepItem {
  R value{};
  bool ok = false;
  std::string error;  // exception what() when !ok
};

// Like run_sweep, but a trial that throws poisons only its own slot: the
// exception is captured as a per-index failure record and the remaining
// N−1 trials still produce results. Determinism contract unchanged (slot
// by index, seed from (base_seed, trial), thread-count invariant).
template <typename R>
std::vector<SweepItem<R>> run_sweep_guarded(
    std::size_t n_trials,
    const std::function<R(std::size_t, std::uint64_t)>& body,
    const SweepOptions& opts = {}) {
  std::vector<SweepItem<R>> results(n_trials);
  detail::run_trials(n_trials, opts.threads, [&](std::size_t i) {
    try {
      results[i].value = body(i, sweep_trial_seed(opts.base_seed, i));
      results[i].ok = true;
    } catch (const std::exception& e) {
      results[i].error = e.what();
    } catch (...) {
      results[i].error = "unknown exception";
    }
  });
  return results;
}

}  // namespace nemtcam::util
