// Unit tests for the discrete-event scheduler.
#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"
#include "sim/scheduler.h"

namespace dgc {
namespace {

TEST(SchedulerTest, StartsAtTimeZeroIdle) {
  Scheduler s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_FALSE(s.RunOne());
}

TEST(SchedulerTest, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.At(30, [&] { order.push_back(3); });
  s.At(10, [&] { order.push_back(1); });
  s.At(20, [&] { order.push_back(2); });
  EXPECT_TRUE(s.RunUntilIdle());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(SchedulerTest, FifoWithinSameInstant) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.At(5, [&order, i] { order.push_back(i); });
  }
  s.RunUntilIdle();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerTest, AfterIsRelativeToNow) {
  Scheduler s;
  SimTime seen = -1;
  s.At(100, [&] {
    s.After(5, [&] { seen = s.now(); });
  });
  s.RunUntilIdle();
  EXPECT_EQ(seen, 105);
}

TEST(SchedulerTest, EventsMayScheduleMoreEvents) {
  Scheduler s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 50) s.After(1, chain);
  };
  s.After(0, chain);
  s.RunUntilIdle();
  EXPECT_EQ(depth, 50);
  EXPECT_EQ(s.now(), 49);
}

TEST(SchedulerTest, SchedulingInThePastThrows) {
  Scheduler s;
  s.At(10, [] {});
  s.RunUntilIdle();
  EXPECT_THROW(s.At(5, [] {}), InvariantViolation);
}

TEST(SchedulerTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Scheduler s;
  std::vector<SimTime> fired;
  s.At(10, [&] { fired.push_back(10); });
  s.At(20, [&] { fired.push_back(20); });
  s.At(30, [&] { fired.push_back(30); });
  s.RunUntil(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(s.now(), 20);
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(SchedulerTest, EventBudgetGuardsLivelock) {
  Scheduler s;
  std::function<void()> forever = [&] { s.After(1, forever); };
  s.After(0, forever);
  EXPECT_THROW(s.RunUntilIdle(100), InvariantViolation);
}

// Counts its own copies. A closure holding one shows whether the scheduler
// copies an event's action, which for a delivery holds the whole batch.
struct CopyCounter {
  int* copies;
  explicit CopyCounter(int* count) : copies(count) {}
  CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
};

TEST(SchedulerTest, RunningAnEventNeverCopiesItsAction) {
  Scheduler s;
  int copies = 0;
  std::vector<int> order;
  // Later events scheduled first, so the heap reorders every one of them.
  for (int i = 0; i < 16; ++i) {
    s.At(16 - i, [counter = CopyCounter(&copies), &order, i] {
      (void)counter;
      order.push_back(i);
    });
  }
  EXPECT_EQ(copies, 0);
  s.RunUntilIdle();
  ASSERT_EQ(order.size(), 16u);
  EXPECT_EQ(order.front(), 15);
  EXPECT_EQ(order.back(), 0);
  EXPECT_EQ(copies, 0) << "an action was copied between At and its run";
}

TEST(SchedulerTest, CountsExecutedEvents) {
  Scheduler s;
  for (int i = 0; i < 7; ++i) s.At(i, [] {});
  s.RunUntilIdle();
  EXPECT_EQ(s.events_executed(), 7u);
}

}  // namespace
}  // namespace dgc
