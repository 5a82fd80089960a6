// A persistent, bounded pool of worker threads. The threaded transport runs
// each timestep's site steps on it (net/threaded_transport.h).
//
// The pool exists because respawning std::threads every timestep costs more
// than the site steps it parallelises on small worlds.
//
// Execution model: RunBatch is a caller-participates parallel-for. The
// calling thread always executes tasks itself, and every pool worker joins
// in by claiming task indices from a shared atomic cursor. Because the
// caller participates, RunBatch makes progress even when every pool worker
// is busy (or when the pool has zero threads) — a nested RunBatch issued
// from inside a pool task therefore runs on the task's own thread, plus any
// free workers, instead of deadlocking.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dgc {

class WorkerPool {
 public:
  /// Spawns `worker_threads` persistent threads (0 is valid: every RunBatch
  /// then runs entirely on the calling thread, with no synchronization
  /// beyond the batch bookkeeping).
  explicit WorkerPool(std::size_t worker_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t worker_threads() const { return threads_.size(); }

  /// Executes task(0) … task(task_count - 1), each exactly once, on the
  /// caller plus up to task_count - 1 pool workers. Blocks until every task
  /// finished. The first exception thrown by a task is rethrown here after
  /// remaining claimed tasks are skipped. Safe to call from inside a pool
  /// task.
  void RunBatch(std::size_t task_count,
                const std::function<void(std::size_t)>& task);

  /// Per-RunBatch shared bookkeeping (public so the claim/execute loop can
  /// live in a translation-unit-local helper; not part of the API).
  struct BatchState;

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<BatchState>> tickets_;  // one entry per helper
  bool stopping_ = false;
};

}  // namespace dgc
