#include "sim/scheduler.h"

#include <algorithm>
#include <utility>

namespace dgc {

void Scheduler::At(SimTime t, Action action) {
  DGC_CHECK_MSG(t >= now_, "cannot schedule in the past: t=" << t
                                                             << " now=" << now_);
  DGC_CHECK(action != nullptr);
  queue_.push_back(Event{t, next_seq_++, std::move(action)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

bool Scheduler::RunOne() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event event = std::move(queue_.back());
  queue_.pop_back();
  DGC_CHECK(event.time >= now_);
  now_ = event.time;
  ++executed_;
  event.action();
  return true;
}

bool Scheduler::RunUntilIdle(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events; ++i) {
    if (!RunOne()) return true;
  }
  DGC_CHECK_MSG(queue_.empty(),
                "event budget exhausted with " << queue_.size()
                                               << " events pending");
  return true;
}

void Scheduler::RunUntil(SimTime t) {
  DGC_CHECK(t >= now_);
  while (!queue_.empty() && queue_.front().time <= t) {
    RunOne();
  }
  now_ = t;
}

}  // namespace dgc
