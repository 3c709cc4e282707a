// Fixed-size work-stealing thread pool for the sweep runtime.
//
// Each worker owns a deque: it pops its own work LIFO (cache-warm) and
// steals FIFO from victims when dry, so large tasks submitted early get
// stolen first and the tail of a sweep stays balanced. Tasks are
// closures with no return channel — callers hand out result slots
// up front (see par/sweep.hpp), which is what keeps sweep output
// deterministic regardless of which thread runs what.
//
// The pool is deliberately small-surface: submit() + wait_idle(), no
// futures, no task graph. Independent sweep trials need nothing more,
// and the simple shape keeps the determinism argument airtight.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace amr {

class ThreadPool {
 public:
  /// Spawn `threads` workers (clamped to >= 1).
  explicit ThreadPool(int threads);

  /// Drains nothing: outstanding tasks are completed before teardown.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task (round-robin across worker deques). Thread-safe;
  /// tasks may themselves submit.
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished. The caller's thread
  /// does not execute tasks.
  void wait_idle();

  /// Run fn(0..n-1) across the pool and block until all n calls return —
  /// the barrier of a serve batch or a placement evaluation. Unlike
  /// wait_idle this waits on exactly these n tasks (a private latch), so
  /// it composes with other outstanding submissions, and the pool
  /// persists across calls instead of being respawned per barrier. The
  /// caller's thread does not execute tasks. Not reentrant from inside a
  /// task.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  int size() const { return static_cast<int>(workers_.size()); }

  /// Worker count for --jobs=0 ("use the machine"): hardware
  /// concurrency, at least 1.
  static int hardware_jobs();

 private:
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, std::function<void()>& out);

  std::vector<std::unique_ptr<Worker>> queues_;
  std::vector<std::thread> workers_;

  std::mutex state_mu_;
  std::condition_variable work_cv_;  ///< workers: new work or shutdown
  std::condition_variable idle_cv_;  ///< waiters: in_flight hit zero
  std::uint64_t in_flight_ = 0;      ///< queued + executing tasks
  std::uint64_t next_queue_ = 0;     ///< round-robin submission cursor
  /// Tasks pushed to a deque but not yet popped. Signed: a task can be
  /// stolen between submit's push and its counter increment, briefly
  /// driving this negative. Workers sleep on pending_ <= 0; because the
  /// increment happens under state_mu_ before the notify, a sleep
  /// decision can never race past a submission (no lost wakeups).
  std::int64_t pending_ = 0;
  bool shutdown_ = false;
};

}  // namespace amr
