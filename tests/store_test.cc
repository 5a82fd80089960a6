// Unit tests for the per-site object store.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
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
  EXPECT_THROW((void)heap.Slots(foreign), InvariantViolation);
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
  heap.ForEach(
      [&](ObjectId id, std::span<const ObjectId>) { seen.insert(id); });
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
  EXPECT_EQ(heap.Slots(c).size(), 2u);
  EXPECT_THROW((void)heap.Slots(a), InvariantViolation);
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
  heap.ForEach(
      [&](ObjectId id, std::span<const ObjectId>) { order.push_back(id); });
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

TEST(SlabHeapTest, SlotViewsStableAcrossArenaGrowth) {
  Heap heap(0);
  const ObjectId first = heap.Allocate(3);
  heap.SetSlot(first, 2, first);
  const std::span<const ObjectId> view = heap.Slots(first);
  // Grow the record table and the arena by several chunks.
  for (std::size_t i = 0; i < 3 * SlotArena::kChunkSlots; ++i) {
    (void)heap.Allocate(3);
  }
  EXPECT_GE(heap.arena_chunk_count(), 9u);
  EXPECT_EQ(heap.Slots(first).data(), view.data());
  EXPECT_EQ(view[2], first);
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

TEST(SlabHeapTest, RecordOfExposesTheStampAndTheSlots) {
  Heap heap(0);
  const ObjectId a = heap.Allocate(1);
  const ObjectId b = heap.Allocate(0);
  Heap::Record& record = heap.RecordOf(a);
  record.mark = 6;  // trace 3's suspect stamp
  EXPECT_EQ(heap.mark(a), 6u);
  EXPECT_EQ(heap.mark(b), 0u);  // one stamp per slot, no neighbour touched
  heap.SetSlot(a, 0, a);
  ASSERT_EQ(record.slot_count(), 1u);
  EXPECT_EQ(record.slots()[0], a);
  heap.Free(b);
  // A stale id's record and stamp throw.
  EXPECT_THROW((void)heap.RecordOf(b), InvariantViolation);
  EXPECT_THROW((void)heap.mark(b), InvariantViolation);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(SlabHeapDeathTest, FreedSlotsArePoisonedUnderAsan) {
  // The arena recycles ranges itself, so only its own poisoning lets
  // AddressSanitizer see a view read after its object was freed.
  Heap heap(0);
  const ObjectId a = heap.Allocate(3);
  const std::span<const ObjectId> view = heap.Slots(a);
  heap.Free(a);
  EXPECT_DEATH((void)*static_cast<const volatile SiteId*>(&view[1].site),
               "use-after-poison");
}
#endif

// --- Differential: the heap against a plain model --------------------------

/// The heap's contract kept the plain way: each live object's slots by id,
/// each storage slot's generation, stamp and live id, the LIFO free list,
/// the roots in insertion order, and every id ever freed.
class HeapModel {
 public:
  explicit HeapModel(SiteId site) : site_(site) {}

  ObjectId Allocate(std::size_t count) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(generation_.size());
      generation_.push_back(0);
      mark_.push_back(0);
      id_at_.push_back(kInvalidObject);
    }
    const ObjectId id{
        site_, (std::uint64_t{generation_[slot]} << 32) | (slot + 1)};
    objects_.emplace(id, std::vector<ObjectId>(count, kInvalidObject));
    id_at_[slot] = id;
    return id;
  }

  void Free(ObjectId id) {
    const std::uint64_t slot = Heap::SlotOfIndex(id.index);
    objects_.erase(id);
    ++generation_[slot];
    mark_[slot] = 0;
    id_at_[slot] = kInvalidObject;
    free_slots_.push_back(static_cast<std::uint32_t>(slot));
    dead_.push_back(id);
  }

  /// Stamps do not survive an image round trip.
  void ClearMarks() { std::fill(mark_.begin(), mark_.end(), 0); }

  std::map<ObjectId, std::vector<ObjectId>>& objects() { return objects_; }
  const std::map<ObjectId, std::vector<ObjectId>>& objects() const {
    return objects_;
  }
  std::vector<ObjectId>& roots() { return roots_; }
  const std::vector<ObjectId>& roots() const { return roots_; }
  const std::vector<ObjectId>& dead() const { return dead_; }
  std::uint64_t& mark(ObjectId id) {
    return mark_[Heap::SlotOfIndex(id.index)];
  }

  /// The live objects in storage-slot order, each with its stamp.
  std::vector<std::pair<ObjectId, std::uint64_t>> InSlotOrder() const {
    std::vector<std::pair<ObjectId, std::uint64_t>> order;
    for (std::size_t slot = 0; slot < id_at_.size(); ++slot) {
      if (id_at_[slot].valid()) order.emplace_back(id_at_[slot], mark_[slot]);
    }
    return order;
  }

  std::size_t slot_capacity() const { return generation_.size(); }
  std::size_t free_slot_count() const { return free_slots_.size(); }

 private:
  SiteId site_;
  std::map<ObjectId, std::vector<ObjectId>> objects_;
  std::vector<std::uint32_t> generation_;  // by storage slot
  std::vector<std::uint64_t> mark_;        // by storage slot
  std::vector<ObjectId> id_at_;            // by storage slot; invalid if dead
  std::vector<std::uint32_t> free_slots_;  // LIFO
  std::vector<ObjectId> roots_;
  std::vector<ObjectId> dead_;
};

/// Fails unless every observable of `heap` matches `model`.
void ExpectHeapMatchesModel(const Heap& heap, const HeapModel& model,
                            std::size_t step) {
  SCOPED_TRACE(::testing::Message() << "step " << step);
  ASSERT_EQ(heap.object_count(), model.objects().size());
  ASSERT_EQ(heap.slot_capacity(), model.slot_capacity());
  ASSERT_EQ(heap.free_slot_count(), model.free_slot_count());
  ASSERT_EQ(heap.persistent_roots(), model.roots());
  const auto expected = model.InSlotOrder();
  std::vector<std::pair<ObjectId, std::uint64_t>> seen;
  std::size_t mismatched = 0;
  heap.ForEach([&](ObjectId id, std::span<const ObjectId> slots) {
    seen.emplace_back(id, 0);
    const auto it = model.objects().find(id);
    if (it == model.objects().end() ||
        !std::equal(slots.begin(), slots.end(), it->second.begin(),
                    it->second.end())) {
      ++mismatched;
    }
  });
  EXPECT_EQ(mismatched, 0u);
  std::size_t i = 0;
  heap.ForEachMark([&](ObjectId id, std::uint64_t mark) {
    ASSERT_LT(i, seen.size());
    EXPECT_EQ(id, seen[i].first);  // the same order as ForEach
    seen[i++].second = mark;
  });
  EXPECT_EQ(seen, expected);
  // The newest stale ids stay dead.
  const std::vector<ObjectId>& dead = model.dead();
  for (std::size_t k = dead.size() > 8 ? dead.size() - 8 : 0; k < dead.size();
       ++k) {
    EXPECT_FALSE(heap.Exists(dead[k])) << dead[k];
  }
}

/// A random live object of the model, or kInvalidObject.
ObjectId PickLive(const HeapModel& model, Rng& rng) {
  if (model.objects().empty()) return kInvalidObject;
  auto it = model.objects().begin();
  std::advance(it, rng.NextBelow(model.objects().size()));
  return it->first;
}

/// Slot counts: 0-8, and now and then a few hundred.
std::size_t PickCount(Rng& rng) {
  return rng.NextBelow(50) == 0 ? 100 + rng.NextBelow(300)
                                : rng.NextBelow(9);
}

/// A random slot value: a live local object, a remote one, a stale id or
/// null.
ObjectId PickTarget(const HeapModel& model, Rng& rng) {
  switch (rng.NextBelow(4)) {
    case 0: return PickLive(model, rng);
    case 1: return ObjectId{7, 1 + rng.NextBelow(1000)};
    case 2:
      if (!model.dead().empty()) {
        return model.dead()[rng.NextBelow(model.dead().size())];
      }
      return kInvalidObject;
    default: return kInvalidObject;
  }
}

/// One random operation, applied to both sides.
void RandomStep(Heap& heap, HeapModel& model, Rng& rng,
                std::size_t target_live) {
  const std::uint64_t op = rng.NextBelow(100);
  const bool grow = model.objects().size() < target_live;
  if (op < (grow ? 40u : 20u) || model.objects().empty()) {
    const std::size_t count = PickCount(rng);
    const ObjectId id = model.Allocate(count);
    ASSERT_EQ(heap.Allocate(count), id);
    // Half the new objects are wired whole, so that a range shared with a
    // neighbour shows as a changed slot.
    if (rng.NextBelow(2) == 0) {
      std::vector<ObjectId>& slots = model.objects()[id];
      for (std::size_t slot = 0; slot < slots.size(); ++slot) {
        slots[slot] = ObjectId{7, 1 + rng.NextBelow(1000)};
        heap.SetSlot(id, slot, slots[slot]);
      }
    }
    return;
  }
  const ObjectId id = PickLive(model, rng);
  std::vector<ObjectId>& roots = model.roots();
  const bool is_root = std::find(roots.begin(), roots.end(), id) != roots.end();
  if (op < 45) {
    if (is_root) {
      EXPECT_THROW(heap.Free(id), InvariantViolation);
      return;
    }
    heap.Free(id);
    model.Free(id);
  } else if (op < 80) {
    std::vector<ObjectId>& slots = model.objects()[id];
    if (slots.empty()) return;
    const std::size_t slot = rng.NextBelow(slots.size());
    slots[slot] = PickTarget(model, rng);
    heap.SetSlot(id, slot, slots[slot]);
  } else if (op < 88) {
    if (is_root) {
      EXPECT_THROW(heap.AddPersistentRoot(id), InvariantViolation);
      return;
    }
    heap.AddPersistentRoot(id);
    roots.push_back(id);
  } else if (op < 94) {
    if (roots.empty()) return;
    const auto it = roots.begin() +
                     static_cast<std::ptrdiff_t>(rng.NextBelow(roots.size()));
    heap.RemovePersistentRoot(*it);
    roots.erase(it);
  } else {
    const std::uint64_t stamp = 1 + rng.NextBelow(1000);
    heap.set_mark(id, stamp);
    model.mark(id) = stamp;
  }
}

TEST(HeapDifferential, RandomSequencesMatchAPlainModel) {
  constexpr std::size_t kSteps = 2000;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    auto heap = std::make_unique<Heap>(3);
    HeapModel model(3);
    for (std::size_t step = 0; step < kSteps; ++step) {
      // Swings between about 30 and 250 live objects.
      const std::size_t target = (step / 400) % 2 == 0 ? 250 : 30;
      RandomStep(*heap, model, rng, target);
      if (step == kSteps / 2) {
        // Partway through, continue in a fresh heap restored from an image.
        const HeapImage image = heap->CaptureImage();
        heap = std::make_unique<Heap>(3);
        heap->RestoreImage(image);
        model.ClearMarks();
      }
      ExpectHeapMatchesModel(*heap, model, step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(HeapDifferential, ArenaStaysNearThePeakAfterLongMixedChurn) {
  // Counts 0-8 and now and then a few hundred, while the live population
  // swings between about 300 and 3,000 objects. Chunks hold counts up to
  // kMaxChunkedCount; a larger count is its own allocation.
  Rng rng(20261022);
  Heap heap(0);
  std::vector<ObjectId> live;
  std::size_t chunked_slots = 0;
  std::size_t peak = 0;
  const auto chunked = [](std::size_t count) {
    return count <= SlotArena::kMaxChunkedCount ? count : 0;
  };
  for (std::size_t step = 0; step < 200'000; ++step) {
    const std::size_t target = (step / 20'000) % 2 == 0 ? 3'000 : 300;
    if (live.empty() || (live.size() < target ? rng.NextBelow(3) != 0
                                              : rng.NextBelow(3) == 0)) {
      const std::size_t count = PickCount(rng);
      live.push_back(heap.Allocate(count));
      chunked_slots += chunked(count);
      peak = std::max(peak, chunked_slots);
    } else {
      const std::size_t i = rng.NextBelow(live.size());
      chunked_slots -= chunked(heap.Slots(live[i]).size());
      heap.Free(live[i]);
      live[i] = live.back();
      live.pop_back();
    }
  }
  const std::size_t needed =
      (peak + SlotArena::kChunkSlots - 1) / SlotArena::kChunkSlots;
  EXPECT_GE(heap.arena_chunk_count(), needed);
  EXPECT_LE(heap.arena_chunk_count(), 2 * needed)
      << "peak " << peak << " chunked slots";
}

}  // namespace
}  // namespace dgc
