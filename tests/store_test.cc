// Unit tests for the per-site object store.
#include <gtest/gtest.h>

#include "common/check.h"
#include "store/heap.h"

namespace dgc {
namespace {

TEST(HeapTest, AllocateAssignsOwnedIds) {
  Heap heap(3);
  const ObjectId a = heap.Allocate(2);
  const ObjectId b = heap.Allocate(0);
  EXPECT_EQ(a.site, 3u);
  EXPECT_EQ(b.site, 3u);
  EXPECT_NE(a, b);
  EXPECT_TRUE(heap.Exists(a));
  EXPECT_EQ(heap.object_count(), 2u);
  EXPECT_EQ(heap.stats().allocated, 2u);
}

TEST(HeapTest, SlotsStartNull) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(heap.GetSlot(a, i), kInvalidObject);
  }
}

TEST(HeapTest, SetAndGetSlot) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(2);
  const ObjectId b = heap.Allocate(0);
  heap.SetSlot(a, 1, b);
  EXPECT_EQ(heap.GetSlot(a, 1), b);
  heap.SetSlot(a, 1, kInvalidObject);
  EXPECT_EQ(heap.GetSlot(a, 1), kInvalidObject);
}

TEST(HeapTest, OutOfRangeSlotThrows) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(1);
  EXPECT_THROW(heap.SetSlot(a, 1, kInvalidObject), InvariantViolation);
  EXPECT_THROW((void)heap.GetSlot(a, 5), InvariantViolation);
}

TEST(HeapTest, FreeReclaims) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(0);
  heap.Free(a);
  EXPECT_FALSE(heap.Exists(a));
  EXPECT_EQ(heap.stats().reclaimed, 1u);
  EXPECT_THROW(heap.Free(a), InvariantViolation);
}

TEST(HeapTest, IdsNotReusedAfterFree) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(0);
  heap.Free(a);
  const ObjectId b = heap.Allocate(0);
  EXPECT_NE(a, b);
}

TEST(HeapTest, ForeignIdDoesNotExist) {
  Heap heap(1);
  Heap other(2);
  const ObjectId foreign = other.Allocate(0);
  EXPECT_FALSE(heap.Exists(foreign));
  EXPECT_THROW((void)heap.Get(foreign), InvariantViolation);
}

TEST(HeapTest, PersistentRoots) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(0);
  const ObjectId b = heap.Allocate(0);
  heap.AddPersistentRoot(a);
  heap.AddPersistentRoot(b);
  EXPECT_EQ(heap.persistent_roots().size(), 2u);
  heap.RemovePersistentRoot(a);
  ASSERT_EQ(heap.persistent_roots().size(), 1u);
  EXPECT_EQ(heap.persistent_roots()[0], b);
}

TEST(HeapTest, CannotFreeAPersistentRoot) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(0);
  heap.AddPersistentRoot(a);
  EXPECT_THROW(heap.Free(a), InvariantViolation);
  heap.RemovePersistentRoot(a);
  EXPECT_NO_THROW(heap.Free(a));
}

TEST(HeapTest, DuplicateRootRejected) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(0);
  heap.AddPersistentRoot(a);
  EXPECT_THROW(heap.AddPersistentRoot(a), InvariantViolation);
}

TEST(HeapTest, ForEachVisitsAllObjects) {
  Heap heap(0);
  std::set<ObjectId> allocated;
  for (int i = 0; i < 20; ++i) allocated.insert(heap.Allocate(1));
  std::set<ObjectId> seen;
  heap.ForEach([&](ObjectId id, const Object&) { seen.insert(id); });
  EXPECT_EQ(seen, allocated);
}

TEST(HeapTest, MarkEpochsDefaultToZero) {
  // The one mark stamp per slot: below every trace's 2e, so a fresh object
  // reads unmarked to the first trace.
  Heap heap(0);
  const ObjectId a = heap.Allocate(0);
  EXPECT_EQ(heap.mark(a), 0u);
  EXPECT_THROW((void)heap.mark(ObjectId{0, 99}), InvariantViolation);
}

// --- Slab / free-list behaviour -------------------------------------------

TEST(SlabHeapTest, FreeRecyclesStorageSlotUnderFreshId) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(1);
  const ObjectId b = heap.Allocate(1);
  const std::size_t capacity = heap.slot_capacity();
  heap.Free(a);
  EXPECT_EQ(heap.free_slot_count(), 1u);
  const ObjectId c = heap.Allocate(2);
  // The storage slot is recycled (no capacity growth, free list drained)...
  EXPECT_EQ(heap.slot_capacity(), capacity);
  EXPECT_EQ(heap.free_slot_count(), 0u);
  // ...but the id is fresh: the stale id stays dead forever.
  EXPECT_NE(c, a);
  EXPECT_FALSE(heap.Exists(a));
  EXPECT_TRUE(heap.Exists(c));
  EXPECT_TRUE(heap.Exists(b));
  EXPECT_EQ(heap.Get(c).slots.size(), 2u);
  EXPECT_THROW((void)heap.Get(a), InvariantViolation);
}

TEST(SlabHeapTest, RepeatedReuseKeepsIdsDistinct) {
  Heap heap(0);
  std::set<ObjectId> ids;
  ObjectId current = heap.Allocate(0);
  ids.insert(current);
  for (int i = 0; i < 100; ++i) {
    heap.Free(current);
    current = heap.Allocate(0);
    EXPECT_TRUE(ids.insert(current).second) << "id reused after " << i;
  }
  EXPECT_EQ(heap.slot_capacity(), 1u);  // one slot served all 101 ids
}

TEST(SlabHeapTest, ForEachVisitsStorageOrderAfterFrees) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(0);
  const ObjectId b = heap.Allocate(0);
  const ObjectId c = heap.Allocate(0);
  heap.Free(b);
  const ObjectId d = heap.Allocate(0);  // recycles b's slot
  const ObjectId e = heap.Allocate(0);  // fresh slot after c
  std::vector<ObjectId> order;
  heap.ForEach([&](ObjectId id, const Object&) { order.push_back(id); });
  // A recycled slot keeps its storage position: d sits where b was.
  EXPECT_EQ(order, (std::vector<ObjectId>{a, d, c, e}));
}

TEST(SlabHeapTest, EpochSideArraysResetWhenSlotRecycled) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(0);
  heap.set_mark(a, 15);  // trace 7's clean stamp
  EXPECT_EQ(heap.mark(a), 15u);
  heap.Free(a);
  const ObjectId b = heap.Allocate(0);  // same slot, fresh generation
  EXPECT_EQ(heap.mark(b), 0u);
  EXPECT_THROW(heap.set_mark(a, 15), InvariantViolation);  // stale id
}

TEST(SlabHeapTest, ObjectPointersStableAcrossSlabGrowth) {
  Heap heap(0);
  const ObjectId first = heap.Allocate(1);
  const Object* address = &heap.Get(first);
  // Force several slab allocations past the first.
  for (std::size_t i = 0; i < 3 * Heap::kSlabSize; ++i) heap.Allocate(0);
  EXPECT_GE(heap.slab_count(), 3u);
  EXPECT_EQ(&heap.Get(first), address);
}

TEST(SlabHeapTest, OccupancyTracksLiveOverCapacity) {
  Heap heap(0);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(heap.Allocate(0));
  EXPECT_DOUBLE_EQ(heap.occupancy(), 1.0);
  for (int i = 0; i < 4; ++i) heap.Free(ids[i]);
  EXPECT_DOUBLE_EQ(heap.occupancy(), 0.5);
  EXPECT_EQ(heap.object_count(), 4u);
  EXPECT_EQ(heap.slot_capacity(), 8u);
  EXPECT_EQ(heap.free_slot_count(), 4u);
}

TEST(SlabHeapTest, GetCellExposesEpochCells) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(1);
  const ObjectId b = heap.Allocate(0);
  const Heap::Cell cell = heap.GetCell(a);
  *cell.mark = 6;  // trace 3's suspect stamp
  EXPECT_EQ(heap.mark(a), 6u);
  EXPECT_EQ(heap.mark(b), 0u);  // one stamp per slot, no neighbour touched
  cell.object->slots[0] = a;
  EXPECT_EQ(heap.GetSlot(a, 0), a);
  heap.Free(b);
  EXPECT_THROW((void)heap.GetCell(b), InvariantViolation);
}

}  // namespace
}  // namespace dgc
