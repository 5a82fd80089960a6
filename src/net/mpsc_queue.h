// Multi-producer single-consumer queue for the threaded transport's per-site
// inboxes.
//
// The engine's strict phase alternation means the common case is even
// narrower than MPSC — the coordinator is the only producer (control phase)
// and the owning site thread the only consumer (parallel phase), never
// concurrently — but the queue is built to the full MPSC contract so the
// invariant is belt-and-braces rather than load-bearing, and so the data-race
// smoke test can hammer it from many threads at once.
//
// The queue is unbounded: a bound that blocked Push would let a full inbox
// stall the delivering coordinator inside a barrier phase and deadlock the
// engine. Its depth high-water mark surfaces through the transport counters.
//
// Counter discipline: pushes/pops/peak_depth are guarded by the queue mutex;
// contention (try_lock misses) is an atomic because it is recorded while NOT
// holding the lock. The size mirror is an atomic so the coordinator's Empty()
// polls between phases never take the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace dgc {

template <typename T>
class MpscQueue {
 public:
  struct Stats {
    std::uint64_t pushes = 0;
    std::uint64_t pops = 0;
    std::uint64_t peak_depth = 0;  // max items resident at once
    std::uint64_t contention = 0;  // lock acquisitions that had to wait
  };

  MpscQueue() = default;
  MpscQueue(const MpscQueue&) = delete;
  MpscQueue& operator=(const MpscQueue&) = delete;

  void Push(T value) {
    std::unique_lock<std::mutex> lock = Acquire();
    items_.push_back(std::move(value));
    ++stats_.pushes;
    const std::size_t depth = items_.size();
    if (depth > stats_.peak_depth) stats_.peak_depth = depth;
    size_.store(depth, std::memory_order_release);
  }

  /// Pops the oldest item into `out`; false when empty. FIFO per producer
  /// (and globally, under the engine's single-producer phases — which is
  /// what keeps per-site delivery order identical to the simulator's).
  bool TryPop(T& out) {
    std::unique_lock<std::mutex> lock = Acquire();
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    ++stats_.pops;
    size_.store(items_.size(), std::memory_order_release);
    return true;
  }

  /// Lock-free size mirror: exact between phases (quiescent producers),
  /// approximate only while pushes race it — good enough for the
  /// coordinator's involvement scan and the depth counters.
  [[nodiscard]] bool Empty() const {
    return size_.load(std::memory_order_acquire) == 0;
  }
  [[nodiscard]] std::size_t depth() const {
    return size_.load(std::memory_order_acquire);
  }

  [[nodiscard]] Stats stats() const {
    std::unique_lock<std::mutex> lock(mu_);
    Stats snapshot = stats_;
    snapshot.contention = contention_.load(std::memory_order_relaxed);
    return snapshot;
  }

 private:
  [[nodiscard]] std::unique_lock<std::mutex> Acquire() const {
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    if (!lock.owns_lock()) {
      contention_.fetch_add(1, std::memory_order_relaxed);
      lock.lock();
    }
    return lock;
  }

  mutable std::mutex mu_;
  std::deque<T> items_;
  Stats stats_;  // guarded by mu_ (except contention)
  mutable std::atomic<std::uint64_t> contention_{0};
  std::atomic<std::size_t> size_{0};
};

}  // namespace dgc
