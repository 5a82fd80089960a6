#include "refs/tables.h"

#include <array>

namespace dgc {

InrefEntry* RefTables::FindInref(ObjectId local_ref) {
  const auto it = inrefs_.find(local_ref);
  return it == inrefs_.end() ? nullptr : &it->second;
}

const InrefEntry* RefTables::FindInref(ObjectId local_ref) const {
  const auto it = inrefs_.find(local_ref);
  return it == inrefs_.end() ? nullptr : &it->second;
}

InrefEntry& RefTables::EnsureInref(ObjectId local_ref) {
  DGC_CHECK_MSG(local_ref.site == site_,
                "inref must name a local object: " << local_ref << " on site "
                                                   << site_);
  const std::size_t capacity = inrefs_.capacity();
  auto [it, created] = inrefs_.try_emplace(local_ref);
  if (created) {
    ++(inrefs_.capacity() == capacity ? slot_reuses_ : slot_grows_);
    it->second.back_threshold = config_.initial_back_threshold();
  }
  return it->second;
}

InrefEntry& RefTables::AddInrefSource(ObjectId local_ref, SiteId source,
                                      Distance distance) {
  DGC_CHECK_MSG(source != site_, "a site cannot be its own inref source");
  InrefEntry& entry = EnsureInref(local_ref);
  entry.sources[source] = distance;
  return entry;
}

bool RefTables::RemoveInrefSource(ObjectId local_ref, SiteId source) {
  struct Removal {
    ObjectId ref;
    bool removed = true;
    Distance distance = kDistanceInfinity;
  };
  const std::size_t before = inrefs_.size();
  ApplyUpdate(source, std::array{Removal{local_ref}}, [](ObjectId) {});
  return inrefs_.size() < before;
}

void RefTables::EraseInrefs(std::vector<ObjectId>& refs) {
  if (refs.empty()) return;
  if (!std::is_sorted(refs.begin(), refs.end())) {
    std::sort(refs.begin(), refs.end());
  }
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  const std::size_t removed = inrefs_.erase_sorted(refs);
  DGC_CHECK_MSG(removed == refs.size(), "erasing an absent inref");
  refs.clear();
}

void RefTables::RemoveInref(ObjectId local_ref) { inrefs_.erase(local_ref); }

OutrefEntry* RefTables::FindOutref(ObjectId remote_ref) {
  const auto it = outrefs_.find(remote_ref);
  return it == outrefs_.end() ? nullptr : &it->second;
}

const OutrefEntry* RefTables::FindOutref(ObjectId remote_ref) const {
  const auto it = outrefs_.find(remote_ref);
  return it == outrefs_.end() ? nullptr : &it->second;
}

std::pair<OutrefEntry*, bool> RefTables::EnsureOutref(ObjectId remote_ref) {
  DGC_CHECK_MSG(remote_ref.site != site_,
                "outref must name a remote object: " << remote_ref);
  const std::size_t capacity = outrefs_.capacity();
  auto [it, created] = outrefs_.try_emplace(remote_ref);
  if (created) {
    ++(outrefs_.capacity() == capacity ? slot_reuses_ : slot_grows_);
    it->second.back_threshold = config_.initial_back_threshold();
  }
  return {&it->second, created};
}

void RefTables::RemoveOutrefs(const std::vector<ObjectId>& sorted_refs) {
  if (sorted_refs.empty()) return;
  for (const ObjectId ref : sorted_refs) {  // every check before any move
    const OutrefEntry* entry = FindOutref(ref);
    DGC_CHECK_MSG(entry != nullptr, "no outref " << ref);
    DGC_CHECK_MSG(entry->pin_count == 0, "removing pinned outref " << ref);
  }
  const std::size_t removed = outrefs_.erase_sorted(sorted_refs);
  DGC_CHECK_MSG(removed == sorted_refs.size(),
                "outrefs to remove must be sorted and distinct");
}

}  // namespace dgc
