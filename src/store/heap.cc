#include "store/heap.h"

#include <algorithm>
#include <limits>

namespace dgc {

ObjectId Heap::Allocate(std::size_t slot_count) {
  std::uint64_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = used_slots_;
    DGC_CHECK_MSG(slot + 1 <= kSlotMask, "heap slot space exhausted");
    if (slot == slabs_.size() * kSlabSize) {
      slabs_.push_back(std::make_unique<Slab>());
      marks_.resize(slabs_.size() * kSlabSize, 0);
      generation_.resize(slabs_.size() * kSlabSize, 0);
      live_.resize(slabs_.size() * kSlabSize, 0);
    }
    ++used_slots_;
  }
  ObjectAt(slot).slots.assign(slot_count, kInvalidObject);
  live_[slot] = 1;
  ++live_count_;
  ++stats_.allocated;
  ++mutation_epoch_;
  return IdAt(slot);
}

void Heap::SetSlot(ObjectId id, std::size_t slot, ObjectId target) {
  Object& object = Get(id);
  DGC_CHECK_MSG(slot < object.slots.size(),
                "slot " << slot << " out of range for " << id);
  object.slots[slot] = target;
  ++mutation_epoch_;
}

ObjectId Heap::GetSlot(ObjectId id, std::size_t slot) const {
  const Object& object = Get(id);
  DGC_CHECK_MSG(slot < object.slots.size(),
                "slot " << slot << " out of range for " << id);
  return object.slots[slot];
}

void Heap::Free(ObjectId id) {
  DGC_CHECK_MSG(Exists(id), "freeing nonexistent object " << id);
  DGC_CHECK_MSG(std::find(persistent_roots_.begin(), persistent_roots_.end(),
                          id) == persistent_roots_.end(),
                "freeing persistent root " << id);
  const std::uint64_t slot = SlotOf(id.index);
  ObjectAt(slot).slots.clear();
  ObjectAt(slot).slots.shrink_to_fit();
  marks_[slot] = 0;
  DGC_CHECK_MSG(
      generation_[slot] < std::numeric_limits<std::uint32_t>::max(),
      "generation counter exhausted for slot " << slot);
  ++generation_[slot];
  live_[slot] = 0;
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
  DGC_CHECK(std::find(persistent_roots_.begin(), persistent_roots_.end(),
                      id) == persistent_roots_.end());
  persistent_roots_.push_back(id);
  ++mutation_epoch_;
}

void Heap::RemovePersistentRoot(ObjectId id) {
  const auto it =
      std::find(persistent_roots_.begin(), persistent_roots_.end(), id);
  DGC_CHECK_MSG(it != persistent_roots_.end(), id << " is not a root");
  persistent_roots_.erase(it);
  ++mutation_epoch_;
}

HeapImage Heap::CaptureImage() const {
  HeapImage image;
  image.slots.resize(used_slots_);
  for (std::uint64_t slot = 0; slot < used_slots_; ++slot) {
    HeapImage::SlotImage& s = image.slots[slot];
    s.generation = generation_[slot];
    s.live = live_[slot] != 0;
    if (s.live) s.slots = ObjectAt(slot).slots;
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
    if (slot.generation == std::numeric_limits<std::uint32_t>::max()) {
      return false;  // its next Free would exhaust the generation counter
    }
  }
  return std::all_of(persistent_roots.begin(), persistent_roots.end(),
                     [&](ObjectId root) { return Holds(site, root); });
}

void Heap::RestoreImage(const HeapImage& image) {
  DGC_CHECK_MSG(used_slots_ == 0 && live_count_ == 0,
                "RestoreImage requires a virgin heap");
  const std::uint64_t slots = image.slots.size();
  while (slabs_.size() * kSlabSize < slots) {
    slabs_.push_back(std::make_unique<Slab>());
  }
  const std::size_t capacity = slabs_.size() * kSlabSize;
  marks_.assign(capacity, 0);
  generation_.assign(capacity, 0);
  live_.assign(capacity, 0);
  used_slots_ = slots;
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    const HeapImage::SlotImage& s = image.slots[slot];
    generation_[slot] = s.generation;
    if (!s.live) continue;
    live_[slot] = 1;
    ObjectAt(slot).slots = s.slots;
    ++live_count_;
  }
  free_slots_ = image.free_slots;
  persistent_roots_ = image.persistent_roots;
  stats_ = image.stats;
}

}  // namespace dgc
