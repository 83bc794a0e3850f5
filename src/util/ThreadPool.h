// Small thread pool for embarrassingly parallel sweeps.
//
// The one primitive is parallel_for: persistent workers and the calling
// thread claim indices one at a time from one shared atomic counter, so
// uneven trial costs (one SPICE trial per index) balance without queues.
// A call returns once every index has run and no worker is still running
// one; it never waits for an idle worker to wake. Calls from different
// threads run one at a time, and a parallel_for made from inside a running
// fn (on a worker or on the calling thread) runs its range inline there.
//
// Thread count resolution (default_thread_count): the NEMTCAM_THREADS
// environment variable when set and positive, capped at 256 so that a
// mistyped or overflowing value cannot start thousands of OS threads, else
// hardware_concurrency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nemtcam::util {

std::size_t default_thread_count();

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t n_threads = default_thread_count());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  // Runs fn(i) for every i in [begin, end) on the workers and the calling
  // thread. Returns after every index ran; the first exception thrown by
  // fn is rethrown on the calling thread once all of them have. Determinism
  // is the caller's contract: fn(i) must write only to slot i state, as in
  // run_sweep.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void stop_workers();

  std::mutex call_mutex_;  // held for a whole call: one call at a time
  // The current call, guarded by mutex_ (next_ is claimed lock-free).
  std::mutex mutex_;
  std::condition_variable wake_;  // workers: a call started, or stop_
  std::condition_variable done_;  // caller: the last busy worker left
  const std::function<void(std::size_t)>* fn_ = nullptr;  // null between calls
  std::size_t end_ = 0;
  std::atomic<std::size_t> next_{0};
  std::uint64_t call_ = 0;  // number of calls started
  std::size_t busy_ = 0;    // workers inside the current call
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// Process-wide lazily constructed pool (default_thread_count() workers at
// first use). No library code runs on it; perfbench/driver.cpp times its
// host-speed probe across it.
ThreadPool& shared_pool();

}  // namespace nemtcam::util
