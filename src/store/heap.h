// Per-site object store.
//
// Objects are clustered within sites (Section 2): each site owns a heap of
// objects whose slots hold references to local or remote objects. Certain
// objects are persistent roots (entry points such as name servers). The heap
// knows nothing about garbage collection beyond one mark stamp per object
// that the local tracer uses to avoid a clearing pass.
//
// Storage layout: objects live in fixed-size slabs addressed by a dense
// *storage slot*; `Free` recycles slots through a LIFO free list. The public
// ObjectId stays unique forever by folding a per-slot generation into the
// index — a recycled slot hands out a new id while stale ids fail Exists().
// Mark stamps live in one contiguous side array (not in Object) so the
// marking loop touches dense memory instead of chasing per-object nodes; this
// is what makes the local trace cache-friendly.
//
// Mutation epoch: every state change that could alter a local trace's
// outcome — allocation, reclamation, a slot write, a root-set change — bumps
// a monotone counter. The local collector keys its trace reuse on it: an
// unchanged epoch proves the heap unchanged since the cached trace.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace dgc {

struct Object {
  /// Reference slots; kInvalidObject means null.
  std::vector<ObjectId> slots;
};

struct HeapStats {
  std::uint64_t allocated = 0;
  std::uint64_t reclaimed = 0;
};

/// A structural copy of a heap's durable state: every used storage slot
/// (generation, liveness, reference slots), the free list in its LIFO order,
/// the persistent roots, and the allocation stats. Capturing and restoring
/// an image preserves ObjectIds exactly — slot positions, generations, and
/// the recycling order all round-trip — so a site process restarted from a
/// snapshot allocates the same ids the crashed incarnation would have.
/// Mark stamps are volatile trace state and are deliberately NOT part of
/// the image.
struct HeapImage {
  struct SlotImage {
    std::uint32_t generation = 0;
    bool live = false;
    std::vector<ObjectId> slots;  // empty unless live
  };
  std::vector<SlotImage> slots;           // indexed by storage slot
  std::vector<std::uint32_t> free_slots;  // LIFO order preserved
  std::vector<ObjectId> persistent_roots;
  HeapStats stats;

  /// What Heap::Exists(id) answers once this image is restored into the
  /// heap of `site`: `id` names a live slot at its current generation.
  [[nodiscard]] bool Holds(SiteId site, ObjectId id) const;
  /// What RestoreImage takes on trust: every free slot is in range, dead
  /// and listed once (the next Allocate pops it), every dead slot is empty,
  /// every slot can still be freed without exhausting its generation, and
  /// every persistent root is live.
  [[nodiscard]] bool Restorable(SiteId site) const;
};

class Heap {
 public:
  /// Objects per slab. Slabs never move once allocated, so Object pointers
  /// are stable for the object's lifetime.
  static constexpr std::size_t kSlabSize = 1024;

  explicit Heap(SiteId site) : site_(site) {}

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;

  [[nodiscard]] SiteId site() const { return site_; }

  /// Allocates an object with `slot_count` null reference slots. Recycles a
  /// freed storage slot when one is available (LIFO, deterministic), under a
  /// fresh generation so the returned id never collides with a freed one.
  ObjectId Allocate(std::size_t slot_count);

  [[nodiscard]] bool Exists(ObjectId id) const {
    if (id.site != site_) return false;
    const std::uint64_t biased = id.index & kSlotMask;
    if (biased == 0) return false;
    const std::uint64_t slot = biased - 1;
    return slot < used_slots_ && live_[slot] != 0 &&
           generation_[slot] == GenerationOf(id.index);
  }

  [[nodiscard]] Object& Get(ObjectId id) {
    if (!Exists(id)) FailNoObject(id);
    return ObjectAt(SlotOf(id.index));
  }
  [[nodiscard]] const Object& Get(ObjectId id) const {
    if (!Exists(id)) FailNoObject(id);
    return ObjectAt(SlotOf(id.index));
  }

  // --- Mark stamps (the local tracer's mark state) ----------------------

  /// Stamp of the last local trace that marked the object (0 = never, reset
  /// when a storage slot is recycled). It names the trace and the phase
  /// that marked the object: localgc/local_collector.h.
  [[nodiscard]] std::uint64_t mark(ObjectId id) const {
    if (!Exists(id)) FailNoObject(id);
    return marks_[SlotOf(id.index)];
  }
  void set_mark(ObjectId id, std::uint64_t stamp) {
    if (!Exists(id)) FailNoObject(id);
    marks_[SlotOf(id.index)] = stamp;
  }

  /// One decoded live object: its slots plus its stamp cell, so the marking
  /// loop pays the id decode once per object. The stamp pointer is valid
  /// until the next Allocate or Free (Allocate may grow the side array);
  /// `object` stays valid until that object is freed, since slabs never
  /// move. The local collector's mark stack holds these Object pointers for
  /// the whole mark, which is safe because nothing allocates or frees
  /// during a trace.
  struct Cell {
    Object* object;
    std::uint64_t* mark;
  };
  [[nodiscard]] Cell GetCell(ObjectId id) {
    if (!Exists(id)) FailNoObject(id);
    const std::uint64_t slot = SlotOf(id.index);
    return Cell{&ObjectAt(slot), &marks_[slot]};
  }

  /// Storage slot of an object id's index (low half minus the +1 bias): the
  /// position of its entry in a HeapImage, of its mark bit in System's
  /// oracle walk, which checks Exists first (a recycled slot hands out new
  /// ids), and of its node state in the suspect tracer
  /// (BottomUpOutsetComputer). Only valid for indices minted by this heap
  /// layout.
  static constexpr std::uint64_t SlotOfIndex(std::uint64_t index) {
    return SlotOf(index);
  }

  /// Stores `target` (or null) into a slot. Purely mechanical; reference-
  /// tracking bookkeeping is the caller's job.
  void SetSlot(ObjectId id, std::size_t slot, ObjectId target);

  [[nodiscard]] ObjectId GetSlot(ObjectId id, std::size_t slot) const;

  /// Reclaims an object's storage. The caller guarantees unreachability.
  /// The storage slot joins the free list; its stamp resets to zero and its
  /// generation advances, invalidating the id permanently.
  void Free(ObjectId id);

  /// Marks/queries membership in the persistent-root set. Roots must be
  /// local live objects.
  void AddPersistentRoot(ObjectId id);
  void RemovePersistentRoot(ObjectId id);
  [[nodiscard]] const std::vector<ObjectId>& persistent_roots() const {
    return persistent_roots_;
  }

  [[nodiscard]] std::size_t object_count() const { return live_count_; }
  [[nodiscard]] const HeapStats& stats() const { return stats_; }

  /// Monotone counter bumped by every mutation that can change a local
  /// trace's outcome: Allocate, Free, SetSlot and root-set changes. A
  /// collector that records this value at trace time and sees it unchanged
  /// later has proof the heap is unchanged.
  [[nodiscard]] std::uint64_t mutation_epoch() const {
    return mutation_epoch_;
  }

  // --- Snapshot / restore (socket-transport site persistence) -----------

  /// Copies the durable state out (see HeapImage).
  [[nodiscard]] HeapImage CaptureImage() const;

  /// Rebuilds this heap from an image. Only valid on a heap that has never
  /// allocated — the restore path constructs a fresh Site and loads into it.
  /// Stamps come back zeroed.
  void RestoreImage(const HeapImage& image);

  // --- Occupancy (instrumentation) --------------------------------------

  [[nodiscard]] std::size_t slab_count() const { return slabs_.size(); }
  [[nodiscard]] std::size_t slot_capacity() const { return used_slots_; }
  [[nodiscard]] std::size_t free_slot_count() const {
    return free_slots_.size();
  }
  /// Live objects per storage slot ever used; 1.0 means no internal holes.
  [[nodiscard]] double occupancy() const {
    return used_slots_ == 0
               ? 1.0
               : static_cast<double>(live_count_) /
                     static_cast<double>(used_slots_);
  }

  /// Visits every (ObjectId, Object) pair in storage-slot order: slabs in
  /// creation order, slots within a slab in order. A recycled slot keeps its
  /// storage position, so sweep order (and downstream message batching) is
  /// deterministic across runs and standard libraries.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::uint64_t slot = 0; slot < used_slots_; ++slot) {
      if (live_[slot] == 0) continue;
      fn(IdAt(slot), ObjectAt(slot));
    }
  }

  /// ForEach's order, each live object's id with its stamp: the sweep's
  /// view, one decode per slot.
  template <typename Fn>
  void ForEachMark(Fn&& fn) const {
    for (std::uint64_t slot = 0; slot < used_slots_; ++slot) {
      if (live_[slot] == 0) continue;
      fn(IdAt(slot), marks_[slot]);
    }
  }

 private:
  friend struct HeapImage;  // decodes ids against an image's slots

  // ObjectId.index = (generation << 32) | (slot + 1). The +1 bias keeps
  // index 0 unused (matching the historical numbering where ids start at 1)
  // and makes generation-0 ids read 1, 2, 3, … in allocation order.
  static constexpr std::uint64_t kGenShift = 32;
  static constexpr std::uint64_t kSlotMask = (1ULL << kGenShift) - 1;

  static constexpr std::uint64_t SlotOf(std::uint64_t index) {
    return (index & kSlotMask) - 1;
  }
  static constexpr std::uint32_t GenerationOf(std::uint64_t index) {
    return static_cast<std::uint32_t>(index >> kGenShift);
  }

  [[nodiscard]] ObjectId IdAt(std::uint64_t slot) const {
    return ObjectId{site_, (static_cast<std::uint64_t>(generation_[slot])
                            << kGenShift) |
                               (slot + 1)};
  }
  [[nodiscard]] Object& ObjectAt(std::uint64_t slot) {
    return (*slabs_[slot / kSlabSize])[slot % kSlabSize];
  }
  [[nodiscard]] const Object& ObjectAt(std::uint64_t slot) const {
    return (*slabs_[slot / kSlabSize])[slot % kSlabSize];
  }
  /// Throws the accessors' "no object" violation. Out of line, so that
  /// GetCell stays small enough to inline into the local trace's mark loop.
  [[noreturn]] void FailNoObject(ObjectId id) const;

  using Slab = std::array<Object, kSlabSize>;

  SiteId site_;
  std::vector<std::unique_ptr<Slab>> slabs_;
  // Side arrays indexed by storage slot, contiguous across slabs.
  std::vector<std::uint64_t> marks_;
  std::vector<std::uint32_t> generation_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> free_slots_;  // LIFO recycling
  std::uint64_t used_slots_ = 0;           // high-water mark of slots touched
  std::size_t live_count_ = 0;
  std::vector<ObjectId> persistent_roots_;
  HeapStats stats_;
  std::uint64_t mutation_epoch_ = 0;
};

}  // namespace dgc
