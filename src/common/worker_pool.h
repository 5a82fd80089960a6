// A persistent, bounded pool of worker threads shared by both levels of the
// collector's parallelism: per-site local traces (coarse tasks) and the
// intra-site mark/sweep shards inside one trace (fine tasks).
//
// The pool exists because respawning std::threads every collector round costs
// more than the traces it accelerates on small heaps, and because the two
// scheduling levels must share one bounded set of threads — a round with 8
// sites and mark_threads = 8 must not balloon into 64 kernel threads.
//
// Execution model: RunBatch is a caller-participates parallel-for. The
// calling thread always executes tasks itself, and up to max_concurrency - 1
// pool workers join in by claiming task indices from a shared atomic cursor.
// Because the caller participates, RunBatch makes progress even when every
// pool worker is busy (or when the pool has zero threads) — a nested RunBatch
// issued from inside a pool task therefore degrades gracefully instead of
// deadlocking: the site-level task simply runs its own shard tasks while any
// free workers help.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/counters.h"

namespace dgc {

struct WorkerPoolStats {
  std::uint64_t batches = 0;       // RunBatch invocations
  std::uint64_t tasks_run = 0;     // task executions across all batches
  std::uint64_t pool_tasks_run = 0;  // executed by pool threads (not callers)
  std::uint64_t helpers_dispatched = 0;  // helper tickets queued to the pool
  /// Fraction of task executions the pool's threads absorbed (the rest ran
  /// on calling threads). 0 on a zero-thread pool or before any batch.
  [[nodiscard]] double occupancy() const {
    return tasks_run == 0 ? 0.0
                          : static_cast<double>(pool_tasks_run) /
                                static_cast<double>(tasks_run);
  }
};

auto Counters(Is<WorkerPoolStats> auto& s) {
  return std::tuple{Counter{"batches", s.batches},
                    Counter{"tasks_run", s.tasks_run},
                    Counter{"pool_tasks_run", s.pool_tasks_run},
                    Counter{"helpers_dispatched", s.helpers_dispatched}};
}
static_assert(ListsEveryMember<WorkerPoolStats>());

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

  /// Executes task(0) … task(task_count - 1), each exactly once, with at most
  /// `max_concurrency` executions in flight (the caller plus up to
  /// max_concurrency - 1 pool workers). Blocks until every task finished.
  /// The first exception thrown by a task is rethrown here after remaining
  /// claimed tasks are skipped. Safe to call from inside a pool task.
  void RunBatch(std::size_t task_count,
                const std::function<void(std::size_t)>& task,
                std::size_t max_concurrency);

  [[nodiscard]] WorkerPoolStats stats() const;

  /// Per-RunBatch shared bookkeeping (public so the claim/execute loop can
  /// live in a translation-unit-local helper; not part of the API).
  struct BatchState;

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<BatchState>> tickets_;  // one entry per helper
  bool stopping_ = false;

  // Stats are written under mu_ (batches/helpers at dispatch) or with
  // atomics (task counts, updated from many threads).
  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::uint64_t> pool_tasks_run_{0};
  std::uint64_t batches_ = 0;
  std::uint64_t helpers_dispatched_ = 0;
};

}  // namespace dgc
