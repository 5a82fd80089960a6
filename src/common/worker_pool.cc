#include "common/worker_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

namespace dgc {

/// One RunBatch's shared bookkeeping. Helpers hold a shared_ptr, so a helper
/// that wakes after the batch finished only touches the (still-alive) atomic
/// cursor and returns. The task function itself is borrowed from the caller's
/// frame: a task only executes after winning a claim, and the caller cannot
/// leave RunBatch until `done` reaches `count` — which happens strictly after
/// every claimed execution — so the borrow cannot dangle.
struct WorkerPool::BatchState {
  const std::function<void(std::size_t)>* task = nullptr;
  std::size_t count = 0;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::atomic<bool> failed{false};
  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr failure;  // written by the first failing task, under mu
};

namespace {

/// Claims and runs tasks until the batch cursor is exhausted. Shared by pool
/// workers and the calling thread so both sides run the identical
/// claim/execute/complete protocol.
void DrainBatch(WorkerPool::BatchState& batch) {
  for (;;) {
    const std::size_t i = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.count) return;
    if (!batch.failed.load(std::memory_order_relaxed)) {
      try {
        (*batch.task)(i);
      } catch (...) {
        // First failure wins; the remaining claims are skipped but still
        // counted as done so the caller's completion wait stays exact.
        if (!batch.failed.exchange(true)) {
          std::lock_guard<std::mutex> lock(batch.mu);
          batch.failure = std::current_exception();
        }
      }
    }
    const std::size_t finished =
        batch.done.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (finished == batch.count) {
      // The lock pairs with the caller's predicate check, so this notify
      // cannot slip between its check and its wait.
      std::lock_guard<std::mutex> lock(batch.mu);
      batch.done_cv.notify_all();
    }
  }
}

}  // namespace

WorkerPool::WorkerPool(std::size_t worker_threads) {
  threads_.reserve(worker_threads);
  for (std::size_t i = 0; i < worker_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<BatchState> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stopping_ || !tickets_.empty(); });
      if (stopping_ && tickets_.empty()) return;
      batch = std::move(tickets_.front());
      tickets_.pop_front();
    }
    DrainBatch(*batch);
  }
}

void WorkerPool::RunBatch(std::size_t task_count,
                          const std::function<void(std::size_t)>& task) {
  if (task_count == 0) return;
  const auto batch = std::make_shared<BatchState>();
  batch->task = &task;
  batch->count = task_count;

  const std::size_t helpers = std::min(threads_.size(), task_count - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < helpers; ++i) tickets_.push_back(batch);
  }
  if (helpers == 1) {
    work_cv_.notify_one();
  } else if (helpers > 1) {
    work_cv_.notify_all();
  }

  // The caller claims tasks alongside the helpers, then waits for stragglers
  // (helpers still executing tasks the caller could not claim).
  DrainBatch(*batch);
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->done_cv.wait(lock, [&] {
      return batch->done.load(std::memory_order_acquire) == batch->count;
    });
  }

  if (batch->failed.load(std::memory_order_acquire)) {
    std::exception_ptr failure;
    {
      std::lock_guard<std::mutex> lock(batch->mu);
      failure = batch->failure;
    }
    if (failure) std::rethrow_exception(failure);
  }
}

}  // namespace dgc
