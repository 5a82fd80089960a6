// Per-site object store.
//
// Objects are clustered within sites (Section 2): each site owns a heap of
// objects whose slots hold references to local or remote objects. Certain
// objects are persistent roots (entry points such as name servers). The heap
// knows nothing about garbage collection beyond one mark stamp per object
// that the local tracer uses to avoid a clearing pass.
//
// Storage layout: every object occupies a dense *storage slot*, and each
// storage slot has one 24-byte Heap::Record holding all of its state: the
// mark stamp, the generation, the live and root bits, the reference-slot
// count and a pointer to the reference slots. The reference slots live in a
// SlotArena of fixed-size chunks that never move. `Free` recycles storage
// slots through a LIFO free list, and arena ranges through per-count LIFO
// lists. The public ObjectId stays unique forever by folding the slot's
// generation into the index — a recycled slot hands out a new id while
// stale ids fail Exists(). Marking an object reads two places: its record
// (the Exists check, the stamp and the count share it) and its slots. That
// is what keeps the local trace cheap when the heap has gone cold.
//
// Mutation epoch: every state change that could alter a local trace's
// outcome — allocation, reclamation, a slot write, a root-set change — bumps
// a monotone counter. The local collector keys its trace reuse on it: an
// unchanged epoch proves the heap unchanged since the cached trace.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace dgc {

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
  /// every live slot's count fits a record (Heap::kMaxSlotCount), every
  /// slot can still be freed without exhausting its generation, and every
  /// persistent root is live and listed once (its record's root bit).
  [[nodiscard]] bool Restorable(SiteId site) const;
};

/// Storage for one heap's reference slots. Ranges are cut from chunks of
/// kChunkSlots slots that never move, so a range stays put until it is
/// released. A released range is reused, LIFO, by the next request for the
/// same count; when a request does not fit the newest chunk, the rest of
/// that chunk becomes a released range of its own size. A count above
/// kMaxChunkedCount gets an allocation of its own, freed on release.
/// Under AddressSanitizer every chunk slot outside a taken range is
/// poisoned, so a view that outlives its object faults.
class SlotArena {
 public:
  static constexpr std::size_t kChunkSlots = 1024;
  static constexpr std::size_t kMaxChunkedCount = 64;

  SlotArena() = default;
  SlotArena(const SlotArena&) = delete;
  SlotArena& operator=(const SlotArena&) = delete;
  ~SlotArena();

  /// A range of `count` slots with unspecified contents; null for 0.
  [[nodiscard]] ObjectId* Take(std::size_t count);
  /// Gives back a range that Take(count) returned.
  void Release(ObjectId* range, std::size_t count);

  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

 private:
  std::vector<std::unique_ptr<ObjectId[]>> chunks_;
  ObjectId* tail_ = nullptr;  // the newest chunk's untaken rest
  std::size_t tail_slots_ = 0;
  std::array<std::vector<ObjectId*>, kMaxChunkedCount + 1> released_;
};

class Heap {
 public:
  /// The most reference slots one object can have.
  static constexpr std::size_t kMaxSlotCount = (std::size_t{1} << 30) - 1;

  /// One storage slot's state. The mark loop reads an object's Exists
  /// check, stamp and slot count from this one record, and its slots from
  /// one more place, the arena range the record points at.
  class Record {
   public:
    /// Stamp of the last local trace that marked the object (0 = never,
    /// reset when the storage slot is recycled). It names the trace and the
    /// phase that marked the object: localgc/local_collector.h.
    std::uint64_t mark = 0;

    /// The object's reference slots (kInvalidObject means null). The view
    /// stays valid until the object is freed: arena chunks never move.
    [[nodiscard]] std::span<const ObjectId> slots() const {
      return {slots_, slot_count()};
    }
    [[nodiscard]] std::size_t slot_count() const {
      return bits_ >> kCountShift;
    }

   private:
    friend class Heap;
    static constexpr std::uint32_t kLive = 1;
    static constexpr std::uint32_t kRoot = 2;
    static constexpr unsigned kCountShift = 2;

    [[nodiscard]] bool live() const { return (bits_ & kLive) != 0; }
    [[nodiscard]] bool root() const { return (bits_ & kRoot) != 0; }

    std::uint32_t generation_ = 0;
    std::uint32_t bits_ = 0;  // slot count << kCountShift | kRoot | kLive
    ObjectId* slots_ = nullptr;
  };
  static_assert(sizeof(Record) == 24);

  explicit Heap(SiteId site) : site_(site) {}

  Heap(const Heap&) = delete;
  Heap& operator=(const Heap&) = delete;
  ~Heap();

  [[nodiscard]] SiteId site() const { return site_; }

  /// Allocates an object with `slot_count` null reference slots. Recycles a
  /// freed storage slot when one is available (LIFO, deterministic), under a
  /// fresh generation so the returned id never collides with a freed one.
  ObjectId Allocate(std::size_t slot_count);

  [[nodiscard]] bool Exists(ObjectId id) const {
    // Index 0 decodes to slot 2^64 - 1, which no heap has.
    const std::uint64_t slot = SlotOf(id.index);
    return id.site == site_ && slot < records_.size() &&
           records_[slot].live() &&
           records_[slot].generation_ == GenerationOf(id.index);
  }

  /// The object's reference slots; the view stays valid until the object
  /// is freed.
  [[nodiscard]] std::span<const ObjectId> Slots(ObjectId id) const {
    return RecordOf(id).slots();
  }

  /// The object's record, for the local trace's mark loop, which pays the
  /// id decode once per object. The reference is valid until the next
  /// Allocate, which may grow the record table; nothing allocates during a
  /// trace.
  [[nodiscard]] Record& RecordOf(ObjectId id) {
    if (!Exists(id)) FailNoObject(id);
    return records_[SlotOf(id.index)];
  }
  [[nodiscard]] const Record& RecordOf(ObjectId id) const {
    if (!Exists(id)) FailNoObject(id);
    return records_[SlotOf(id.index)];
  }

  // --- Mark stamps (the local tracer's mark state) ----------------------

  /// The object's Record::mark.
  [[nodiscard]] std::uint64_t mark(ObjectId id) const {
    return RecordOf(id).mark;
  }
  void set_mark(ObjectId id, std::uint64_t stamp) { RecordOf(id).mark = stamp; }

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
  /// The storage slot joins the free list and its reference slots go back
  /// to the arena; its stamp resets to zero and its generation advances,
  /// invalidating the id permanently.
  void Free(ObjectId id);

  /// Marks/queries membership in the persistent-root set. Roots must be
  /// local live objects. Each root's record carries a root bit, so both
  /// checks are O(1); the list keeps insertion order, the order in which
  /// traces read the roots.
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

  [[nodiscard]] std::size_t arena_chunk_count() const {
    return arena_.chunk_count();
  }
  [[nodiscard]] std::size_t slot_capacity() const { return records_.size(); }
  [[nodiscard]] std::size_t free_slot_count() const {
    return free_slots_.size();
  }
  /// Live objects per storage slot ever used; 1.0 means no internal holes.
  [[nodiscard]] double occupancy() const {
    return records_.empty() ? 1.0
                            : static_cast<double>(live_count_) /
                                  static_cast<double>(records_.size());
  }

  /// Visits every live object's id and reference slots in storage-slot
  /// order. A recycled slot keeps its storage position, so sweep order (and
  /// downstream message batching) is deterministic across runs and standard
  /// libraries.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::uint64_t slot = 0; slot < records_.size(); ++slot) {
      const Record& record = records_[slot];
      if (record.live()) fn(IdAt(slot), record.slots());
    }
  }

  /// ForEach's order, each live object's id with its stamp: the sweep's
  /// view, one record per slot.
  template <typename Fn>
  void ForEachMark(Fn&& fn) const {
    for (std::uint64_t slot = 0; slot < records_.size(); ++slot) {
      const Record& record = records_[slot];
      if (record.live()) fn(IdAt(slot), record.mark);
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
    return ObjectId{site_, (static_cast<std::uint64_t>(
                                records_[slot].generation_)
                            << kGenShift) |
                               (slot + 1)};
  }
  /// Throws the accessors' "no object" violation. Out of line, so that
  /// RecordOf stays small enough to inline into the local trace's mark loop.
  [[noreturn]] void FailNoObject(ObjectId id) const;

  SiteId site_;
  std::vector<Record> records_;            // indexed by storage slot
  SlotArena arena_;                        // every record's slots
  std::vector<std::uint32_t> free_slots_;  // LIFO recycling
  std::size_t live_count_ = 0;
  std::vector<ObjectId> persistent_roots_;
  HeapStats stats_;
  std::uint64_t mutation_epoch_ = 0;
};

}  // namespace dgc
