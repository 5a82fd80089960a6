#include "baselines/group_trace.h"

#include <deque>
#include <span>
#include <unordered_set>

#include "common/check.h"

namespace dgc::baselines {

GroupTraceCollector::GroupTraceCollector(System& system,
                                         std::size_t max_group_sites)
    : system_(system), max_group_sites_(max_group_sites) {
  DGC_CHECK(max_group_sites_ >= 1);
}

std::optional<std::set<SiteId>> GroupTraceCollector::RunOnFirstSuspect() {
  for (SiteId s = 0; s < system_.site_count(); ++s) {
    const Site& site = system_.site(s);
    for (const auto& [obj, entry] : site.tables().inrefs()) {
      if (entry.garbage_flagged || entry.sources.empty()) continue;
      if (entry.distance() <= site.config().suspicion_threshold) continue;
      if (!site.heap().Exists(obj)) continue;
      return RunFromSeed(obj);
    }
  }
  return std::nullopt;
}

std::set<SiteId> GroupTraceCollector::RunFromSeed(ObjectId seed) {
  const std::set<SiteId> group = FormGroup(seed);
  stats_.last_group_size = group.size();
  TraceGroup(group);
  return group;
}

std::set<SiteId> GroupTraceCollector::FormGroup(ObjectId seed) {
  // Forward closure from the seed across inter-site references, admitting
  // new sites until the bound. Each inter-site edge crossed during
  // formation costs one membership message (invite/accept round is folded
  // into one for simplicity; the shape, not the constant, matters).
  std::set<SiteId> group{seed.site};
  std::unordered_set<std::uint64_t> visited;  // (site<<40)^index
  const auto key = [](ObjectId id) {
    return (static_cast<std::uint64_t>(id.site) << 40) ^ id.index;
  };
  std::deque<ObjectId> queue{seed};
  visited.insert(key(seed));
  while (!queue.empty()) {
    const ObjectId current = queue.front();
    queue.pop_front();
    const Heap& heap = system_.site(current.site).heap();
    if (!heap.Exists(current)) continue;
    for (const ObjectId target : heap.Slots(current)) {
      if (!target.valid()) continue;
      if (target.site != current.site) {
        ++stats_.formation_messages;
        if (!group.contains(target.site)) {
          if (group.size() >= max_group_sites_) continue;  // bound reached
          group.insert(target.site);
        }
      }
      if (!group.contains(target.site)) continue;
      if (visited.insert(key(target)).second) queue.push_back(target);
    }
  }
  return group;
}

void GroupTraceCollector::TraceGroup(const std::set<SiteId>& group) {
  // Coordinated mark over the group's sites (executed eagerly; messages
  // accounted: start/sweep control per site, one gray message per
  // inter-site edge followed within the group).
  stats_.control_messages += 2 * group.size();

  std::unordered_set<std::uint64_t> marked;
  const auto key = [](ObjectId id) {
    return (static_cast<std::uint64_t>(id.site) << 40) ^ id.index;
  };
  std::deque<ObjectId> gray;
  const auto push_root = [&](ObjectId id) {
    if (!system_.site(id.site).heap().Exists(id)) return;
    if (marked.insert(key(id)).second) gray.push_back(id);
  };

  for (const SiteId s : group) {
    const Site& site = system_.site(s);
    for (const ObjectId root : site.heap().persistent_roots()) push_root(root);
    for (const ObjectId root : site.AppRootObjects()) push_root(root);
    // Inrefs with any source outside the group are roots: the group cannot
    // know whether those references are live.
    for (const auto& [obj, entry] : site.tables().inrefs()) {
      if (entry.garbage_flagged) continue;
      bool external = false;
      for (const auto& [source, info] : entry.sources) {
        (void)info;
        if (!group.contains(source)) external = true;
      }
      if (external) push_root(obj);
    }
  }

  while (!gray.empty()) {
    const ObjectId current = gray.front();
    gray.pop_front();
    const Heap& heap = system_.site(current.site).heap();
    for (const ObjectId target : heap.Slots(current)) {
      if (!target.valid()) continue;
      if (!group.contains(target.site)) continue;  // outside: not ours
      if (target.site != current.site) ++stats_.gray_messages;
      if (!system_.site(target.site).heap().Exists(target)) continue;
      if (marked.insert(key(target)).second) gray.push_back(target);
    }
  }

  // Sweep unmarked objects on group sites, fixing tables: their outrefs are
  // dropped (with removal updates applied eagerly) so referential integrity
  // holds afterwards.
  for (const SiteId s : group) {
    Site& site = system_.site(s);
    std::vector<ObjectId> to_free;
    site.heap().ForEach([&](ObjectId id, std::span<const ObjectId>) {
      if (!marked.contains(key(id))) to_free.push_back(id);
    });
    for (const ObjectId id : to_free) {
      // Drop table state that named the dead object.
      for (const ObjectId target : site.heap().Slots(id)) {
        if (!target.valid() || target.site == s) continue;
        // Another live local object may still hold the same remote ref;
        // only remove the outref if nothing marked does.
        bool still_held = false;
        site.heap().ForEach([&](ObjectId other,
                                std::span<const ObjectId> slots) {
          if (!marked.contains(key(other))) return;
          for (const ObjectId r : slots) {
            if (r == target) still_held = true;
          }
        });
        if (!still_held && site.tables().FindOutref(target) != nullptr &&
            site.tables().FindOutref(target)->pin_count == 0) {
          site.tables().RemoveOutref(target);
          system_.site(target.site).tables().RemoveInrefSource(target, s);
        }
      }
      site.tables().RemoveInref(id);
      site.heap().Free(id);
      ++stats_.objects_swept;
    }
  }
}

}  // namespace dgc::baselines
