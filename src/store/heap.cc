#include "store/heap.h"

#include <algorithm>
#include <limits>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define DGC_POISON(range, count) \
  ASAN_POISON_MEMORY_REGION((range), (count) * sizeof(ObjectId))
#define DGC_UNPOISON(range, count) \
  ASAN_UNPOISON_MEMORY_REGION((range), (count) * sizeof(ObjectId))
#else
#define DGC_POISON(range, count) ((void)(range), (void)(count))
#define DGC_UNPOISON(range, count) ((void)(range), (void)(count))
#endif

namespace dgc {

SlotArena::~SlotArena() {
  for (const auto& chunk : chunks_) DGC_UNPOISON(chunk.get(), kChunkSlots);
}

ObjectId* SlotArena::Take(std::size_t count) {
  if (count == 0) return nullptr;
  if (count > kMaxChunkedCount) return new ObjectId[count];
  ObjectId* range;
  if (std::vector<ObjectId*>& released = released_[count];
      !released.empty()) {
    range = released.back();
    released.pop_back();
  } else {
    if (tail_slots_ < count) {
      if (tail_slots_ != 0) released_[tail_slots_].push_back(tail_);
      chunks_.push_back(std::make_unique<ObjectId[]>(kChunkSlots));
      tail_ = chunks_.back().get();
      tail_slots_ = kChunkSlots;
      DGC_POISON(tail_, kChunkSlots);
    }
    range = tail_;
    tail_ += count;
    tail_slots_ -= count;
  }
  DGC_UNPOISON(range, count);
  return range;
}

void SlotArena::Release(ObjectId* range, std::size_t count) {
  if (count == 0) return;
  if (count > kMaxChunkedCount) {
    delete[] range;
    return;
  }
  DGC_POISON(range, count);
  released_[count].push_back(range);
}

Heap::~Heap() {
  // The arena frees its chunks; a range above kMaxChunkedCount is an
  // allocation of its own.
  for (const Record& record : records_) {
    if (record.slot_count() > SlotArena::kMaxChunkedCount) {
      arena_.Release(record.slots_, record.slot_count());
    }
  }
}

ObjectId Heap::Allocate(std::size_t slot_count) {
  DGC_CHECK_MSG(slot_count <= kMaxSlotCount,
                slot_count << " reference slots do not fit a record");
  std::uint64_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = records_.size();
    DGC_CHECK_MSG(slot + 1 <= kSlotMask, "heap slot space exhausted");
    records_.emplace_back();
  }
  Record& record = records_[slot];
  record.slots_ = arena_.Take(slot_count);
  std::fill_n(record.slots_, slot_count, kInvalidObject);
  record.bits_ = static_cast<std::uint32_t>(slot_count << Record::kCountShift) |
                 Record::kLive;
  ++live_count_;
  ++stats_.allocated;
  ++mutation_epoch_;
  return IdAt(slot);
}

void Heap::SetSlot(ObjectId id, std::size_t slot, ObjectId target) {
  Record& record = RecordOf(id);
  DGC_CHECK_MSG(slot < record.slot_count(),
                "slot " << slot << " out of range for " << id);
  record.slots_[slot] = target;
  ++mutation_epoch_;
}

ObjectId Heap::GetSlot(ObjectId id, std::size_t slot) const {
  const Record& record = RecordOf(id);
  DGC_CHECK_MSG(slot < record.slot_count(),
                "slot " << slot << " out of range for " << id);
  return record.slots_[slot];
}

void Heap::Free(ObjectId id) {
  DGC_CHECK_MSG(Exists(id), "freeing nonexistent object " << id);
  const std::uint64_t slot = SlotOf(id.index);
  Record& record = records_[slot];
  DGC_CHECK_MSG(!record.root(), "freeing persistent root " << id);
  DGC_CHECK_MSG(
      record.generation_ < std::numeric_limits<std::uint32_t>::max(),
      "generation counter exhausted for slot " << slot);
  arena_.Release(record.slots_, record.slot_count());
  record.mark = 0;
  ++record.generation_;
  record.bits_ = 0;
  record.slots_ = nullptr;
  --live_count_;
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  ++stats_.reclaimed;
  ++mutation_epoch_;
}

void Heap::FailNoObject(ObjectId id) const {
  std::ostringstream message;
  message << "no object " << id << " on site " << site_;
  detail::FailCheck("Exists(id)", __FILE__, __LINE__, message.str());
}

void Heap::AddPersistentRoot(ObjectId id) {
  DGC_CHECK_MSG(Exists(id), "persistent root must be local: " << id);
  Record& record = records_[SlotOf(id.index)];
  DGC_CHECK_MSG(!record.root(), id << " is already a root");
  record.bits_ |= Record::kRoot;
  persistent_roots_.push_back(id);
  ++mutation_epoch_;
}

void Heap::RemovePersistentRoot(ObjectId id) {
  DGC_CHECK_MSG(Exists(id) && records_[SlotOf(id.index)].root(),
                id << " is not a root");
  records_[SlotOf(id.index)].bits_ &= ~Record::kRoot;
  persistent_roots_.erase(
      std::find(persistent_roots_.begin(), persistent_roots_.end(), id));
  ++mutation_epoch_;
}

HeapImage Heap::CaptureImage() const {
  HeapImage image;
  image.slots.resize(records_.size());
  for (std::uint64_t slot = 0; slot < records_.size(); ++slot) {
    const Record& record = records_[slot];
    HeapImage::SlotImage& s = image.slots[slot];
    s.generation = record.generation_;
    s.live = record.live();
    s.slots.assign(record.slots().begin(), record.slots().end());
  }
  image.free_slots = free_slots_;
  image.persistent_roots = persistent_roots_;
  image.stats = stats_;
  return image;
}

bool HeapImage::Holds(SiteId site, ObjectId id) const {
  const std::uint64_t slot = Heap::SlotOf(id.index);
  return id.site == site && slot < slots.size() && slots[slot].live &&
         slots[slot].generation == Heap::GenerationOf(id.index);
}

bool HeapImage::Restorable(SiteId site) const {
  std::vector<bool> listed(slots.size(), false);
  for (const std::uint32_t slot : free_slots) {
    if (slot >= slots.size() || slots[slot].live || listed[slot]) {
      return false;
    }
    listed[slot] = true;
  }
  for (const SlotImage& slot : slots) {
    if (!slot.live && !slot.slots.empty()) return false;
    if (slot.slots.size() > Heap::kMaxSlotCount) return false;
    if (slot.generation == std::numeric_limits<std::uint32_t>::max()) {
      return false;  // its next Free would exhaust the generation counter
    }
  }
  // No root is a free slot, so `listed` is clear at every root's slot.
  for (const ObjectId root : persistent_roots) {
    if (!Holds(site, root) || listed[Heap::SlotOf(root.index)]) return false;
    listed[Heap::SlotOf(root.index)] = true;
  }
  return true;
}

void Heap::RestoreImage(const HeapImage& image) {
  DGC_CHECK_MSG(records_.empty() && live_count_ == 0,
                "RestoreImage requires a virgin heap");
  records_.resize(image.slots.size());
  for (std::uint64_t slot = 0; slot < records_.size(); ++slot) {
    const HeapImage::SlotImage& s = image.slots[slot];
    Record& record = records_[slot];
    record.generation_ = s.generation;
    if (!s.live) continue;
    record.slots_ = arena_.Take(s.slots.size());
    std::copy(s.slots.begin(), s.slots.end(), record.slots_);
    record.bits_ =
        static_cast<std::uint32_t>(s.slots.size() << Record::kCountShift) |
        Record::kLive;
    ++live_count_;
  }
  free_slots_ = image.free_slots;
  persistent_roots_ = image.persistent_roots;
  for (const ObjectId root : persistent_roots_) {
    records_[SlotOf(root.index)].bits_ |= Record::kRoot;
  }
  stats_ = image.stats;
}

}  // namespace dgc
