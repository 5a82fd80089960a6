#include "core/system.h"

#include <algorithm>
#include <sstream>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace dgc {

System::System(std::size_t site_count, const CollectorConfig& collector_config,
               const NetworkConfig& network_config, std::uint64_t seed)
    : collector_config_(collector_config),
      rng_(seed),
      network_(scheduler_, network_config, rng_.Fork()) {
  DGC_CHECK(site_count >= 1);
  // With retransmission, "0 disables timeouts" would let one exhausted
  // retransmit budget strand a trace forever; derive protocol timeouts
  // from the network's timing instead (shared with SocketWorld so both
  // coordinators compute identical values — see config.h for the rule).
  DeriveReliabilityTimeouts(collector_config_, network_config);
  sites_.reserve(site_count);
  for (std::size_t i = 0; i < site_count; ++i) {
    sites_.push_back(std::make_unique<Site>(static_cast<SiteId>(i),
                                            network_, collector_config_));
  }
}

System::~System() {
  // glibc keeps freed pages, so back-to-back worlds would stack their
  // footprints. Free the world ahead of member destruction, then hand the
  // pages back past glibc's largest dynamic trim threshold (64 MiB): small
  // worlds keep theirs for the next one.
  sites_.clear();
#ifdef __GLIBC__
  constexpr std::size_t kTrimAboveBytes = std::size_t{64} << 20;
  if (mallinfo2().fordblks > kTrimAboveBytes) malloc_trim(0);
#endif
}

ObjectId System::NewObject(SiteId site_id, std::size_t slots) {
  return site(site_id).heap().Allocate(slots);
}

void System::SetPersistentRoot(ObjectId obj) {
  site(obj.site).heap().AddPersistentRoot(obj);
}

void System::Wire(ObjectId source, std::size_t slot, ObjectId target) {
  site(source.site).WireSource(source, slot, target);
  if (target.valid() && target.site != source.site) {
    site(target.site).WireTarget(target, source.site);
  }
}

void System::Unwire(ObjectId source, std::size_t slot) {
  site(source.site).heap().SetSlot(source, slot, kInvalidObject);
}

void System::RunRound() {
  for (auto& s : sites_) {
    if (!s->trace_in_flight()) s->StartLocalTrace();
    SettleNetwork();
  }
  ++rounds_;
}

void System::RunRoundStaggered(SimTime stagger) {
  const SimTime base = now();
  SimTime offset = 0;
  for (auto& s : sites_) {
    Site* raw = s.get();
    scheduler_.At(base + offset, [raw] {
      if (!raw->trace_in_flight()) raw->StartLocalTrace();
    });
    offset += stagger;
  }
  SettleNetwork();
  ++rounds_;
}

void System::RunRounds(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) RunRound();
}

void System::SettleNetwork() { scheduler_.RunUntilIdle(); }

void System::ArmFaultPlan(const FaultPlan& plan) {
  FaultHooks hooks = network().PlanHooks();
  hooks.crash_restart = [this](SiteId site) {
    DGC_CHECK(site < sites_.size());
    sites_[site]->CrashRestart();
  };
  plan.Schedule(scheduler_, std::move(hooks));
}

namespace {

/// One walk of the world from every root (persistent roots, app roots and
/// pinned outrefs, site by site), then depth first along slots. It marks each
/// existing object it reaches, one bit per heap slot, once Exists has checked
/// the id's generation, and keeps the first edge into a missing object: a
/// live object that was reclaimed, which CheckSafety reports.
struct RootWalk {
  std::vector<std::vector<bool>> marks;  // [site][heap slot]
  std::string missing;

  [[nodiscard]] bool Marked(ObjectId existing) const {
    return marks[existing.site][Heap::SlotOfIndex(existing.index)];
  }
};

RootWalk WalkFromRoots(const System& system) {
  RootWalk walk;
  walk.marks.reserve(system.site_count());
  for (SiteId s = 0; s < system.site_count(); ++s) {
    walk.marks.emplace_back(system.site(s).heap().slot_capacity());
  }
  std::vector<ObjectId> stack;
  const auto reach = [&](ObjectId id, const char* why, ObjectId holder) {
    if (!id.valid()) return;
    if (!system.ObjectExists(id)) {
      if (walk.missing.empty()) {
        std::ostringstream os;
        os << "live object " << id << " (" << why << " of " << holder
           << ") was reclaimed";
        walk.missing = os.str();
      }
      return;
    }
    auto mark = walk.marks[id.site][Heap::SlotOfIndex(id.index)];
    if (mark) return;
    mark = true;
    stack.push_back(id);
  };
  const auto reach_roots = [&](const std::vector<ObjectId>& roots,
                               const char* why) {
    for (const ObjectId root : roots) reach(root, why, root);
  };
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const Site& site = system.site(s);
    reach_roots(site.heap().persistent_roots(), "persistent root");
    reach_roots(site.AppRootObjects(), "app root");
    reach_roots(site.PinnedRemoteRefs(), "pinned ref");
  }
  while (!stack.empty()) {
    const ObjectId current = stack.back();
    stack.pop_back();
    for (const ObjectId target :
         system.site(current.site).heap().Get(current).slots) {
      reach(target, "slot", current);
    }
  }
  return walk;
}

}  // namespace

std::set<ObjectId> System::ComputeLiveSet() const {
  const RootWalk walk = WalkFromRoots(*this);
  std::set<ObjectId> live;
  for (const auto& s : sites_) {
    s->heap().ForEach([&](ObjectId id, const Object&) {
      if (walk.Marked(id)) live.insert(id);
    });
  }
  return live;
}

std::size_t System::TotalObjects() const {
  std::size_t total = 0;
  for (const auto& s : sites_) total += s->heap().object_count();
  return total;
}

bool System::ObjectExists(ObjectId id) const {
  if (!id.valid() || id.site >= sites_.size()) return false;
  return sites_[id.site]->heap().Exists(id);
}

std::string System::CheckSafety() const {
  return WalkFromRoots(*this).missing;
}

std::string System::CheckCompleteness() const {
  const RootWalk walk = WalkFromRoots(*this);
  for (const auto& s : sites_) {
    std::string found;
    s->heap().ForEach([&](ObjectId id, const Object&) {
      if (found.empty() && !walk.Marked(id)) {
        std::ostringstream os;
        os << "garbage object " << id << " still stored";
        found = os.str();
      }
    });
    if (!found.empty()) return found;
  }
  return {};
}

std::string System::CheckReferentialIntegrity() const {
  std::ostringstream violation;
  const RootWalk walk = WalkFromRoots(*this);
  // Every cross-site reference held by a live object must be covered by an
  // outref at the holder's site, and every outref by an inref source entry.
  for (const auto& s : sites_) {
    // The heap runs in slot order, but a recycled slot's id sorts by its
    // generation first; report the lowest live holder, as ids sort.
    ObjectId holder = kInvalidObject;
    ObjectId held;
    s->heap().ForEach([&](ObjectId id, const Object& object) {
      if (!walk.Marked(id) || (holder.valid() && holder < id)) return;
      for (const ObjectId target : object.slots) {
        if (!target.valid() || target.site == s->id()) continue;
        if (s->tables().FindOutref(target) == nullptr) {
          holder = id;
          held = target;
          return;
        }
      }
    });
    if (holder.valid()) {
      violation << "live object " << holder << " holds " << held
                << " with no outref at site " << s->id();
      return violation.str();
    }
    for (const auto& [ref, entry] : s->tables().outrefs()) {
      (void)entry;
      const Site& owner = site(ref.site);
      const InrefEntry* inref = owner.tables().FindInref(ref);
      if (inref == nullptr || !inref->sources.contains(s->id())) {
        violation << "outref " << ref << " at site " << s->id()
                  << " missing from owner's inref sources";
        return violation.str();
      }
      if (!owner.heap().Exists(ref)) {
        violation << "outref " << ref << " at site " << s->id()
                  << " names a reclaimed object";
        return violation.str();
      }
    }
  }
  return {};
}

std::string System::CheckLocalSafetyInvariant() const {
  std::ostringstream violation;
  std::vector<ObjectId> stack;
  std::vector<ObjectId> reached_remote;
  for (const auto& s : sites_) {
    const Heap& heap = s->heap();
    // Per heap slot, the stamp of the last inref walk that reached it.
    std::vector<std::uint32_t> reached_in(heap.slot_capacity());
    std::uint32_t stamp = 0;
    // True local reachability: from each live inref's object, which remote
    // references (outrefs) does the local heap reach?
    for (const auto& [inref_obj, inref_entry] : s->tables().inrefs()) {
      if (inref_entry.garbage_flagged) continue;
      if (!heap.Exists(inref_obj)) continue;
      ++stamp;
      reached_in[Heap::SlotOfIndex(inref_obj.index)] = stamp;
      stack.assign(1, inref_obj);
      reached_remote.clear();
      while (!stack.empty()) {
        const ObjectId current = stack.back();
        stack.pop_back();
        for (const ObjectId target : heap.Get(current).slots) {
          if (!target.valid()) continue;
          if (target.site != s->id()) {
            reached_remote.push_back(target);
            continue;
          }
          if (!heap.Exists(target)) continue;  // racing sweep
          std::uint32_t& seen = reached_in[Heap::SlotOfIndex(target.index)];
          if (seen != stamp) {
            seen = stamp;
            stack.push_back(target);
          }
        }
      }
      std::sort(reached_remote.begin(), reached_remote.end());
      reached_remote.erase(
          std::unique(reached_remote.begin(), reached_remote.end()),
          reached_remote.end());
      for (const ObjectId outref : reached_remote) {
        const OutrefEntry* entry = s->tables().FindOutref(outref);
        if (entry == nullptr || entry->clean()) continue;  // clean: exempt
        const auto inset = s->back_info().outref_insets.find(outref);
        const bool listed =
            inset != s->back_info().outref_insets.end() &&
            std::binary_search(inset->second.begin(), inset->second.end(),
                               inref_obj);
        if (!listed) {
          violation << "site " << s->id() << ": suspected outref " << outref
                    << " is locally reachable from inref " << inref_obj
                    << " but its inset omits it";
          return violation.str();
        }
      }
    }
  }
  return {};
}

SiteStats System::AggregateSiteStats() const {
  SiteStats total;
  for (const auto& s : sites_) Accumulate(total, s->stats());
  return total;
}

BackTracerStats System::AggregateBackTracerStats() const {
  BackTracerStats total;
  for (const auto& s : sites_) Accumulate(total, s->back_tracer().stats());
  return total;
}

std::uint64_t System::TotalObjectsReclaimed() const {
  std::uint64_t total = 0;
  for (const auto& s : sites_) total += s->heap().stats().reclaimed;
  return total;
}

System::HeapOccupancy System::AggregateHeapOccupancy() const {
  HeapOccupancy total;
  for (const auto& s : sites_) {
    total.slabs += s->heap().slab_count();
    total.slot_capacity += s->heap().slot_capacity();
    total.live_objects += s->heap().object_count();
    total.free_slots += s->heap().free_slot_count();
  }
  return total;
}

}  // namespace dgc
