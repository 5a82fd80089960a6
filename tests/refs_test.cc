// Unit tests for the inref/outref tables.
#include <gtest/gtest.h>

#include "common/check.h"
#include "refs/tables.h"

namespace dgc {
namespace {

class RefTablesTest : public ::testing::Test {
 protected:
  CollectorConfig config_;
  RefTables tables_{/*site=*/1, config_};
  const ObjectId local_{1, 10};
  const ObjectId remote_{2, 20};
};

TEST_F(RefTablesTest, EnsureInrefCreatesWithConfiguredThreshold) {
  InrefEntry& entry = tables_.EnsureInref(local_);
  EXPECT_EQ(entry.back_threshold, config_.initial_back_threshold());
  EXPECT_TRUE(entry.sources.empty());
  EXPECT_EQ(entry.distance(), kDistanceInfinity);
}

TEST_F(RefTablesTest, InrefMustBeLocal) {
  EXPECT_THROW(tables_.EnsureInref(remote_), InvariantViolation);
}

TEST_F(RefTablesTest, AddSourceTracksDistanceMinimum) {
  tables_.AddInrefSource(local_, 2, 5);
  tables_.AddInrefSource(local_, 3, 2);
  const InrefEntry* entry = tables_.FindInref(local_);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->distance(), 2u);
  tables_.AddInrefSource(local_, 3, 9);  // update overwrites
  EXPECT_EQ(entry->distance(), 5u);
}

TEST_F(RefTablesTest, OwnSiteCannotBeSource) {
  EXPECT_THROW(tables_.AddInrefSource(local_, 1, 1), InvariantViolation);
}

TEST_F(RefTablesTest, RemoveLastSourceRemovesEntry) {
  tables_.AddInrefSource(local_, 2, 1);
  tables_.AddInrefSource(local_, 3, 1);
  EXPECT_FALSE(tables_.RemoveInrefSource(local_, 2));
  EXPECT_NE(tables_.FindInref(local_), nullptr);
  EXPECT_TRUE(tables_.RemoveInrefSource(local_, 3));
  EXPECT_EQ(tables_.FindInref(local_), nullptr);
}

TEST_F(RefTablesTest, RemoveSourceOfMissingInrefIsNoop) {
  EXPECT_FALSE(tables_.RemoveInrefSource(local_, 2));
}

TEST_F(RefTablesTest, InrefCleanlinessFollowsDistanceThreshold) {
  config_.suspicion_threshold = 3;
  InrefEntry& entry = tables_.AddInrefSource(local_, 2, 3);
  EXPECT_TRUE(entry.clean(3));
  entry.sources[2] = SourceInfo{4, 0};
  EXPECT_FALSE(entry.clean(3));
  entry.clean_override = true;  // transfer barrier
  EXPECT_TRUE(entry.clean(3));
  entry.garbage_flagged = true;  // condemned wins over everything
  EXPECT_FALSE(entry.clean(3));
}

TEST_F(RefTablesTest, OutrefCleanlinessSources) {
  auto [entry, created] = tables_.EnsureOutref(remote_);
  EXPECT_TRUE(created);
  EXPECT_FALSE(entry->clean());
  entry->traced_clean = true;
  EXPECT_TRUE(entry->clean());
  entry->traced_clean = false;
  entry->clean_override = true;
  EXPECT_TRUE(entry->clean());
  entry->clean_override = false;
  entry->pin_count = 1;
  EXPECT_TRUE(entry->clean());
}

TEST_F(RefTablesTest, OutrefMustBeRemote) {
  EXPECT_THROW(tables_.EnsureOutref(local_), InvariantViolation);
}

TEST_F(RefTablesTest, EnsureOutrefIdempotent) {
  auto [first, created1] = tables_.EnsureOutref(remote_);
  auto [second, created2] = tables_.EnsureOutref(remote_);
  EXPECT_TRUE(created1);
  EXPECT_FALSE(created2);
  EXPECT_EQ(first, second);
}

TEST_F(RefTablesTest, RemovingPinnedOutrefThrows) {
  auto [entry, created] = tables_.EnsureOutref(remote_);
  (void)created;
  entry->pin_count = 1;
  EXPECT_THROW(tables_.RemoveOutref(remote_), InvariantViolation);
  entry->pin_count = 0;
  EXPECT_NO_THROW(tables_.RemoveOutref(remote_));
  EXPECT_EQ(tables_.FindOutref(remote_), nullptr);
}

TEST_F(RefTablesTest, BulkTrimKeepsRemoveOutrefChecks) {
  const ObjectId a{2, 1}, b{2, 2}, c{3, 1};
  for (const ObjectId ref : {a, b, c}) tables_.EnsureOutref(ref);
  tables_.FindOutref(b)->pin_count = 1;
  EXPECT_THROW(tables_.RemoveOutrefs({a, b}), InvariantViolation);  // pinned
  EXPECT_THROW(tables_.RemoveOutrefs({a, ObjectId{2, 9}}),
               InvariantViolation);  // absent
  // Both checks fire before anything moves.
  EXPECT_EQ(tables_.outrefs().size(), 3u);
  tables_.RemoveOutrefs({a, c});
  EXPECT_EQ(tables_.FindOutref(a), nullptr);
  EXPECT_NE(tables_.FindOutref(b), nullptr);
  EXPECT_EQ(tables_.FindOutref(c), nullptr);
}

TEST_F(RefTablesTest, VisitedMarksPerTrace) {
  InrefEntry& entry = tables_.EnsureInref(local_);
  const TraceId t1{0, 1}, t2{0, 2};
  EXPECT_FALSE(entry.IsVisitedBy(t1));
  entry.MarkVisited(t1);
  EXPECT_TRUE(entry.IsVisitedBy(t1));
  EXPECT_FALSE(entry.IsVisitedBy(t2));
  entry.MarkVisited(t2);
  entry.ClearVisited(t1);
  EXPECT_FALSE(entry.IsVisitedBy(t1));
  EXPECT_TRUE(entry.IsVisitedBy(t2));
}

TEST_F(RefTablesTest, TablesIterateInDeterministicOrder) {
  tables_.EnsureOutref(ObjectId{3, 5});
  tables_.EnsureOutref(ObjectId{2, 9});
  tables_.EnsureOutref(ObjectId{2, 1});
  ObjectId previous{};
  bool first = true;
  for (const auto& [ref, entry] : tables_.outrefs()) {
    (void)entry;
    if (!first) {
      EXPECT_LT(previous, ref);
    }
    previous = ref;
    first = false;
  }
}

}  // namespace
}  // namespace dgc
