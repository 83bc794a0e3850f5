#include "util/ThreadPool.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "util/Expect.h"

namespace nemtcam::util {

namespace {

// Ceiling on NEMTCAM_THREADS: far above the hosts this runs on, far below
// the thread count a typo or an overflowing value would ask for.
constexpr long kMaxDefaultThreads = 256;

// True while this thread runs some call's fn: a parallel_for made there
// runs inline, so a nested call can neither deadlock on call_mutex_ nor
// wait for workers that are busy running its own caller.
thread_local bool t_in_fn = false;

// Runs fn on indices claimed from `next` until the claims pass `end`.
// Returns the first exception fn threw, after every claimed index ran.
std::exception_ptr claim_and_run(std::atomic<std::size_t>& next,
                                 std::size_t end,
                                 const std::function<void(std::size_t)>& fn) {
  std::exception_ptr first;
  const bool outer = std::exchange(t_in_fn, true);
  for (std::size_t i = next.fetch_add(1); i < end; i = next.fetch_add(1)) {
    try {
      fn(i);
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  t_in_fn = outer;
  return first;
}

}  // namespace

std::size_t default_thread_count() {
  if (const char* env = std::getenv("NEMTCAM_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(std::min(n, kMaxDefaultThreads));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

ThreadPool& shared_pool() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

ThreadPool::ThreadPool(std::size_t n_threads) {
  NEMTCAM_EXPECT(n_threads > 0);
  workers_.reserve(n_threads);
  try {
    for (std::size_t i = 0; i < n_threads; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  } catch (...) {
    stop_workers();  // an unjoined std::thread would terminate the program
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  if (t_in_fn) {
    std::atomic<std::size_t> next{begin};
    if (std::exception_ptr e = claim_and_run(next, end, fn))
      std::rethrow_exception(e);
    return;
  }

  const std::lock_guard<std::mutex> one_call(call_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    end_ = end;
    next_.store(begin);
    ++call_;
  }
  wake_.notify_all();
  std::exception_ptr error = claim_and_run(next_, end, fn);

  // Every index is claimed; wait only for the workers that joined this
  // call. Clearing fn_ under the lock keeps late wakers out of it.
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return busy_ == 0; });
  fn_ = nullptr;
  if (!error) error = error_;
  error_ = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  std::uint64_t joined = 0;  // the last call this worker joined
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    wake_.wait(lock, [&] { return stop_ || (fn_ && call_ != joined); });
    if (stop_) return;
    joined = call_;
    const std::function<void(std::size_t)>& fn = *fn_;
    const std::size_t end = end_;
    ++busy_;
    lock.unlock();
    std::exception_ptr error = claim_and_run(next_, end, fn);
    lock.lock();
    if (error && !error_) error_ = error;
    if (--busy_ == 0) done_.notify_one();
  }
}

}  // namespace nemtcam::util
