// Discrete-event scheduler: the simulated world's single clock.
//
// Every activity — mutator steps, message deliveries, local traces,
// back-trace steps, timeouts — is an event at a simulated instant. Events at
// equal instants run in scheduling order (a monotone sequence number breaks
// ties), so runs are fully deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/config.h"

namespace dgc {

class Scheduler {
 public:
  using Action = std::function<void()>;

  /// Current simulated time. Advances only as events execute.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules an action at absolute simulated time t (>= now).
  void At(SimTime t, Action action);

  /// Schedules an action delay ticks from now (delay >= 0).
  void After(SimTime delay, Action action) { At(now_ + delay, std::move(action)); }

  /// Executes the earliest pending event. Returns false if none is pending.
  bool RunOne();

  /// Runs events until the queue drains or the event budget is exhausted.
  /// Returns true if the queue drained. The budget guards against livelock
  /// in buggy protocols; hitting it is an invariant violation.
  bool RunUntilIdle(std::uint64_t max_events = 100'000'000);

  /// Runs events with time <= t, then advances the clock to t.
  void RunUntil(SimTime t);

  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Sentinel returned by next_event_time() when the queue is empty — larger
  /// than any schedulable instant, so min() folds across schedulers ignore
  /// idle ones.
  static constexpr SimTime kNoPendingEvent =
      std::numeric_limits<SimTime>::max();

  /// Instant of the earliest pending event, or kNoPendingEvent when idle.
  /// The conservative time-stepped transport engine uses this to pick the
  /// next global timestep across many schedulers.
  [[nodiscard]] SimTime next_event_time() const {
    return queue_.empty() ? kNoPendingEvent : queue_.front().time;
  }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  /// A binary heap under Later (std::push_heap / std::pop_heap), not a
  /// std::priority_queue: its top() is const, so running an event would
  /// copy its action, and a delivery's action holds the whole batch.
  std::vector<Event> queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace dgc
