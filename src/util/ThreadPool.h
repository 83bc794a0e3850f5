// Small work-stealing thread pool for embarrassingly parallel sweeps.
//
// Each worker owns a deque guarded by its own mutex: the owner pushes and
// pops at the back, idle workers steal from the front of a victim's deque.
// Tasks are submitted round-robin across workers. The pool is intended for
// coarse-grained jobs (one SPICE trial per task), so per-task overhead is
// not the bottleneck; correctness and determinism of the *caller* matter
// more than queue micro-optimisation.
//
// Nesting: tasks may submit further tasks. wait_idle() and parallel_for()
// are work-assisting — the blocked thread drains queued tasks instead of
// sleeping — so a task that fans out subtasks cannot starve the pool.
// A task must still not call wait_idle() (it waits on the *global* pending
// count, which includes the caller's own task); from inside a task, use
// parallel_for, which tracks completion per call.
//
// Thread count resolution (default_thread_count): the NEMTCAM_THREADS
// environment variable when set and positive, else hardware_concurrency.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
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

  // Enqueues a task. May be called from inside a running task.
  void submit(std::function<void()> task);

  // Blocks until every submitted task has finished running, assisting
  // with queued work while it waits. Must not be called from inside a
  // task (use parallel_for there).
  void wait_idle();

  // Blocked-range helper: runs fn(i) for every i in [begin, end), split
  // into contiguous chunks of at least `grain` indices distributed across
  // the pool. The calling thread assists until *this call's* chunks have
  // finished, so it is safe from inside a pool task (nested parallelism).
  // Returns after all iterations ran; the first exception thrown by fn is
  // rethrown on the calling thread. Determinism is the caller's contract:
  // fn(i) must write only to slot i state, as in run_sweep.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn,
                    std::size_t grain = 1);

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
  };

  bool try_pop(std::size_t self, std::function<void()>& out);
  // Steals one task from any queue and runs it on the calling thread,
  // with full pending/queued bookkeeping. False when every queue is empty.
  bool run_one_task();
  void worker_loop(std::size_t self);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex cv_mutex_;
  std::condition_variable cv_;        // wakes workers when work arrives
  std::condition_variable idle_cv_;   // wakes wait_idle when all work is
                                      // done or new work shows up to assist
  std::size_t pending_ = 0;           // submitted but not yet finished
  std::size_t queued_ = 0;            // submitted but not yet popped
  std::size_t next_queue_ = 0;        // round-robin submission cursor
  bool stop_ = false;
};

// Process-wide lazily constructed pool (default_thread_count() workers at
// first use). No library code runs on it; perfbench/driver.cpp times its
// host-speed probe across it.
ThreadPool& shared_pool();

}  // namespace nemtcam::util
