// Tests for the validation machinery itself: the oracle and each invariant
// checker must actually detect the violations they claim to detect (a
// checker that can never fail validates nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.h"
#include "workload/builders.h"

namespace dgc {
namespace {

CollectorConfig Config() {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  config.enable_back_tracing = false;
  return config;
}

TEST(OracleTest, LiveSetFollowsAllRootKinds) {
  System system(2, Config());
  const ObjectId rooted = system.NewObject(0, 1);
  system.SetPersistentRoot(rooted);
  const ObjectId via_slot = system.NewObject(1, 0);
  system.Wire(rooted, 0, via_slot);
  const ObjectId app_rooted = system.NewObject(0, 0);
  system.site(0).AddAppRoot(app_rooted);
  const ObjectId pinned = system.NewObject(1, 0);
  bool done = false;
  system.site(0).ReceiveReference(pinned, [&] { done = true; });
  system.SettleNetwork();
  ASSERT_TRUE(done);
  system.site(0).PinOutref(pinned);
  const ObjectId orphan = system.NewObject(1, 0);

  const auto live = system.ComputeLiveSet();
  EXPECT_TRUE(live.contains(rooted));
  EXPECT_TRUE(live.contains(via_slot));
  EXPECT_TRUE(live.contains(app_rooted));
  EXPECT_TRUE(live.contains(pinned));
  EXPECT_FALSE(live.contains(orphan));
}

TEST(OracleTest, CheckSafetyDetectsAManuallyFreedLiveObject) {
  System system(2, Config());
  const ObjectId root = system.NewObject(0, 1);
  system.SetPersistentRoot(root);
  const ObjectId victim = system.NewObject(1, 0);
  system.Wire(root, 0, victim);
  EXPECT_TRUE(system.CheckSafety().empty());
  system.site(1).heap().Free(victim);  // simulate a collector bug
  const std::string violation = system.CheckSafety();
  EXPECT_FALSE(violation.empty());
  EXPECT_NE(violation.find("was reclaimed"), std::string::npos);
}

TEST(OracleTest, CheckCompletenessDetectsLeakedGarbage) {
  System system(1, Config());
  system.NewObject(0, 0);  // garbage, not yet collected
  EXPECT_FALSE(system.CheckCompleteness().empty());
  system.RunRound();
  EXPECT_TRUE(system.CheckCompleteness().empty());
}

TEST(OracleTest, CheckReferentialIntegrityDetectsMissingOutref) {
  System system(2, Config());
  const ObjectId root = system.NewObject(0, 1);
  system.SetPersistentRoot(root);
  const ObjectId target = system.NewObject(1, 0);
  system.Wire(root, 0, target);
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty());
  system.site(0).tables().RemoveOutref(target);  // corrupt the tables
  const std::string violation = system.CheckReferentialIntegrity();
  EXPECT_FALSE(violation.empty());
  EXPECT_NE(violation.find("no outref"), std::string::npos);
}

TEST(OracleTest, CheckReferentialIntegrityDetectsMissingSource) {
  System system(2, Config());
  const ObjectId root = system.NewObject(0, 1);
  system.SetPersistentRoot(root);
  const ObjectId target = system.NewObject(1, 0);
  system.Wire(root, 0, target);
  system.site(1).tables().RemoveInrefSource(target, 0);  // corrupt
  const std::string violation = system.CheckReferentialIntegrity();
  EXPECT_FALSE(violation.empty());
  EXPECT_NE(violation.find("missing from owner's inref sources"),
            std::string::npos);
}

TEST(OracleTest, LocalSafetyCheckerDetectsCorruptedInset) {
  System system(2, Config());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  system.RunRounds(6);  // suspected; insets computed
  ASSERT_TRUE(system.CheckLocalSafetyInvariant().empty())
      << system.CheckLocalSafetyInvariant();
  // Corrupt site 0's back information: drop the inset of its outref.
  Site& site0 = system.site(0);
  auto& info = const_cast<SiteBackInfo&>(site0.back_info());
  info.outref_insets.clear();
  const std::string violation = system.CheckLocalSafetyInvariant();
  EXPECT_FALSE(violation.empty());
  EXPECT_NE(violation.find("inset omits it"), std::string::npos);
  (void)cycle;
}

TEST(OracleTest, AggregateStatsSumAcrossSites) {
  System system(3, CollectorConfig{.suspicion_threshold = 2,
                                   .estimated_cycle_length = 3});
  workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  workload::BuildCycle(
      system, {.sites = 2, .objects_per_site = 1, .first_site = 1});
  system.RunRounds(20);
  const BackTracerStats stats = system.AggregateBackTracerStats();
  EXPECT_GE(stats.traces_started, 2u);
  EXPECT_GE(stats.traces_completed_garbage, 2u);
  EXPECT_EQ(system.TotalObjectsReclaimed(), 4u);
  EXPECT_EQ(system.TotalObjects(), 0u);
}

TEST(OracleTest, ObjectExistsRejectsForeignAndInvalidIds) {
  System system(2, Config());
  EXPECT_FALSE(system.ObjectExists(kInvalidObject));
  EXPECT_FALSE(system.ObjectExists(ObjectId{99, 1}));  // site out of range
  EXPECT_FALSE(system.ObjectExists(ObjectId{0, 12345}));
  const ObjectId real = system.NewObject(0, 0);
  EXPECT_TRUE(system.ObjectExists(real));
}


// --- Differential: the one-walk oracle against the set-based checks ------
//
// Before the checks shared one walk of the world, each built its own
// std::set<ObjectId>. Those versions are kept here, over System's public
// API, as the reference: on every world and fault below each check must
// return the same string, byte for byte, and ComputeLiveSet an equal set.

namespace reference {

std::set<ObjectId> ComputeLiveSet(const System& system) {
  std::vector<ObjectId> stack;
  std::set<ObjectId> live;
  const auto push = [&](ObjectId id) {
    if (!id.valid()) return;
    if (!system.ObjectExists(id)) return;
    if (live.insert(id).second) stack.push_back(id);
  };
  for (SiteId i = 0; i < system.site_count(); ++i) {
    const Site& s = system.site(i);
    for (const ObjectId root : s.heap().persistent_roots()) push(root);
    for (const ObjectId root : s.AppRootObjects()) push(root);
    for (const ObjectId pinned : s.PinnedRemoteRefs()) push(pinned);
  }
  while (!stack.empty()) {
    const ObjectId current = stack.back();
    stack.pop_back();
    for (const ObjectId target :
         system.site(current.site).heap().Get(current).slots) {
      push(target);
    }
  }
  return live;
}

std::string CheckSafety(const System& system) {
  std::vector<ObjectId> stack;
  std::set<ObjectId> seen;
  std::ostringstream violation;
  const auto push = [&](ObjectId id, const char* why,
                        ObjectId holder) -> bool {
    if (!id.valid()) return true;
    if (!system.ObjectExists(id)) {
      violation << "live object " << id << " (" << why << " of " << holder
                << ") was reclaimed";
      return false;
    }
    if (seen.insert(id).second) stack.push_back(id);
    return true;
  };
  for (SiteId i = 0; i < system.site_count(); ++i) {
    const Site& s = system.site(i);
    for (const ObjectId root : s.heap().persistent_roots()) {
      if (!push(root, "persistent root", root)) return violation.str();
    }
    for (const ObjectId root : s.AppRootObjects()) {
      if (!push(root, "app root", root)) return violation.str();
    }
    for (const ObjectId pinned : s.PinnedRemoteRefs()) {
      if (!push(pinned, "pinned ref", pinned)) return violation.str();
    }
  }
  while (!stack.empty()) {
    const ObjectId current = stack.back();
    stack.pop_back();
    for (const ObjectId target :
         system.site(current.site).heap().Get(current).slots) {
      if (!push(target, "slot", current)) return violation.str();
    }
  }
  return {};
}

std::string CheckCompleteness(const System& system) {
  const std::set<ObjectId> live = ComputeLiveSet(system);
  for (SiteId i = 0; i < system.site_count(); ++i) {
    std::string found;
    system.site(i).heap().ForEach([&](ObjectId id, const Object&) {
      if (found.empty() && !live.contains(id)) {
        std::ostringstream os;
        os << "garbage object " << id << " still stored";
        found = os.str();
      }
    });
    if (!found.empty()) return found;
  }
  return {};
}

std::string CheckReferentialIntegrity(const System& system) {
  std::ostringstream violation;
  const std::set<ObjectId> live = ComputeLiveSet(system);
  for (SiteId i = 0; i < system.site_count(); ++i) {
    const Site& s = system.site(i);
    for (const ObjectId id : live) {
      if (id.site != s.id()) continue;
      for (const ObjectId target : s.heap().Get(id).slots) {
        if (!target.valid() || target.site == s.id()) continue;
        if (s.tables().FindOutref(target) == nullptr) {
          violation << "live object " << id << " holds " << target
                    << " with no outref at site " << s.id();
          return violation.str();
        }
      }
    }
    for (const auto& [ref, entry] : s.tables().outrefs()) {
      (void)entry;
      const Site& owner = system.site(ref.site);
      const InrefEntry* inref = owner.tables().FindInref(ref);
      if (inref == nullptr || !inref->sources.contains(s.id())) {
        violation << "outref " << ref << " at site " << s.id()
                  << " missing from owner's inref sources";
        return violation.str();
      }
      if (!owner.heap().Exists(ref)) {
        violation << "outref " << ref << " at site " << s.id()
                  << " names a reclaimed object";
        return violation.str();
      }
    }
  }
  return {};
}

std::string CheckLocalSafetyInvariant(const System& system) {
  std::ostringstream violation;
  for (SiteId i = 0; i < system.site_count(); ++i) {
    const Site& s = system.site(i);
    for (const auto& [inref_obj, inref_entry] : s.tables().inrefs()) {
      if (inref_entry.garbage_flagged) continue;
      if (!s.heap().Exists(inref_obj)) continue;
      std::set<std::uint64_t> seen{inref_obj.index};
      std::vector<ObjectId> stack{inref_obj};
      std::set<ObjectId> reached_remote;
      while (!stack.empty()) {
        const ObjectId current = stack.back();
        stack.pop_back();
        for (const ObjectId target : s.heap().Get(current).slots) {
          if (!target.valid()) continue;
          if (target.site != s.id()) {
            reached_remote.insert(target);
            continue;
          }
          if (!s.heap().Exists(target)) continue;
          if (seen.insert(target.index).second) stack.push_back(target);
        }
      }
      for (const ObjectId outref : reached_remote) {
        const OutrefEntry* entry = s.tables().FindOutref(outref);
        if (entry == nullptr || entry->clean()) continue;
        const auto inset = s.back_info().outref_insets.find(outref);
        const bool listed =
            inset != s.back_info().outref_insets.end() &&
            std::binary_search(inset->second.begin(), inset->second.end(),
                               inref_obj);
        if (!listed) {
          violation << "site " << s.id() << ": suspected outref " << outref
                    << " is locally reachable from inref " << inref_obj
                    << " but its inset omits it";
          return violation.str();
        }
      }
    }
  }
  return {};
}

}  // namespace reference

/// The reference's answers, for the non-vacuity count below.
struct Answers {
  std::string safety, completeness, integrity, local_safety;
};

Answers ExpectSameAnswers(const System& system, const std::string& where) {
  Answers ref{reference::CheckSafety(system),
              reference::CheckCompleteness(system),
              reference::CheckReferentialIntegrity(system),
              reference::CheckLocalSafetyInvariant(system)};
  EXPECT_EQ(system.CheckSafety(), ref.safety) << where;
  EXPECT_EQ(system.CheckCompleteness(), ref.completeness) << where;
  EXPECT_EQ(system.CheckReferentialIntegrity(), ref.integrity) << where;
  EXPECT_EQ(system.CheckLocalSafetyInvariant(), ref.local_safety) << where;
  EXPECT_EQ(system.ComputeLiveSet(), reference::ComputeLiveSet(system))
      << where;
  return ref;
}

enum class Fault {
  kFreeReachable,         // a live object freed through Heap::Free
  kFreeThenReuseSlot,     // ... its slot then handed to an unreachable object
  kFreeThenReuseAsRoot,   // ... and to a new persistent root
  kFreeAppRoot,
  kFreePinnedTarget,
  kLeftoverGarbage,       // an unreachable object and a two-site cycle
  kRemoveOutref,          // a live holder's outref dropped
  kRemoveInrefSource,     // an outref's source dropped at its owner
  kFreeOutrefTarget,      // an outref's target freed at its owner
  kClearInsets,           // the far site's outref_insets cleared
};

const char* FaultName(Fault fault) {
  switch (fault) {
    case Fault::kFreeReachable: return "FreeReachable";
    case Fault::kFreeThenReuseSlot: return "FreeThenReuseSlot";
    case Fault::kFreeThenReuseAsRoot: return "FreeThenReuseAsRoot";
    case Fault::kFreeAppRoot: return "FreeAppRoot";
    case Fault::kFreePinnedTarget: return "FreePinnedTarget";
    case Fault::kLeftoverGarbage: return "LeftoverGarbage";
    case Fault::kRemoveOutref: return "RemoveOutref";
    case Fault::kRemoveInrefSource: return "RemoveInrefSource";
    case Fault::kFreeOutrefTarget: return "FreeOutrefTarget";
    case Fault::kClearInsets: return "ClearInsets";
  }
  return "?";
}

constexpr std::size_t kGraphSites = 4;
constexpr std::size_t kObjectsPerSite = 32;
constexpr SiteId kFarSite = kGraphSites;  // holds only the far fan-out

/// A random graph over four sites with persistent roots on three of them,
/// an app root and a pinned outref, plus a chain from a new root across
/// sites 1 and 2 to one object on a fifth site that fans out to three
/// sites, out of id order; its outrefs lie past the suspicion threshold.
/// After a few rounds, objects are allocated into recycled slots, each
/// holding what an older live object on its site holds, so that live ids
/// of two generations share remote targets. Two more rounds follow.
struct World {
  ObjectId app_root;
  ObjectId pinned;  // on site 2, pinned by site 0
  ObjectId fan_out;
  std::vector<ObjectId> regrown;
};

World BuildWorld(System& system, std::uint64_t seed) {
  Rng rng(seed);
  const std::vector<ObjectId> objects = workload::BuildRandomGraph(
      system,
      {.sites = kGraphSites, .objects_per_site = kObjectsPerSite,
       .slots_per_object = 3, .wire_probability = 0.7,
       .remote_edge_fraction = 0.25},
      rng);
  for (SiteId s = 0; s < 3; ++s) {
    system.SetPersistentRoot(objects[s * kObjectsPerSite]);
  }
  World world;
  ObjectId hop = system.NewObject(0, 1);
  system.SetPersistentRoot(hop);
  for (const SiteId next : {SiteId{1}, SiteId{2}, kFarSite}) {
    const ObjectId further = system.NewObject(next, 3);
    system.Wire(hop, 0, further);
    hop = further;
  }
  world.fan_out = hop;
  for (std::size_t slot = 0; const SiteId target : {3, 0, 2}) {
    system.Wire(world.fan_out, slot++, system.NewObject(target, 0));
  }
  world.app_root = objects[kObjectsPerSite + 5];
  system.site(1).AddAppRoot(world.app_root);
  world.pinned = objects[2 * kObjectsPerSite + 7];
  bool received = false;
  system.site(0).ReceiveReference(world.pinned, [&] { received = true; });
  system.SettleNetwork();
  EXPECT_TRUE(received);
  system.site(0).PinOutref(world.pinned);
  system.RunRounds(3);

  const std::set<ObjectId> live = reference::ComputeLiveSet(system);
  for (SiteId s = 0; s < kGraphSites; ++s) {
    for (int k = 0; k < 3; ++k) {
      if (system.site(s).heap().free_slot_count() == 0) break;
      const ObjectId young = system.NewObject(s, 3);
      const std::uint64_t slot = Heap::SlotOfIndex(young.index);
      // The first older live object at a later slot: it sorts before the
      // young object but follows it in the heap's slot order.
      const auto elder =
          std::find_if(live.begin(), live.end(), [&](ObjectId id) {
            return id.site == s && Heap::SlotOfIndex(id.index) > slot;
          });
      if (elder != live.end()) {
        const Object& model = system.site(s).heap().Get(*elder);
        for (std::size_t i = 0; i < model.slots.size() && i < 3; ++i) {
          if (model.slots[i].valid()) system.Wire(young, i, model.slots[i]);
        }
      }
      system.site(s).AddAppRoot(young);
      world.regrown.push_back(young);
    }
  }
  system.RunRounds(2);
  return world;
}

bool IsPersistentRoot(const System& system, ObjectId id) {
  const auto& roots = system.site(id.site).heap().persistent_roots();
  return std::find(roots.begin(), roots.end(), id) != roots.end();
}

/// A live object that is not a persistent root (Heap::Free refuses one).
ObjectId PickFreeable(const System& system, Rng& rng) {
  std::vector<ObjectId> candidates;
  for (const ObjectId id : reference::ComputeLiveSet(system)) {
    if (!IsPersistentRoot(system, id)) candidates.push_back(id);
  }
  if (candidates.empty()) return kInvalidObject;
  return candidates[rng.NextBelow(candidates.size())];
}

/// Every (site, outref) pair, in site then table order.
std::vector<std::pair<SiteId, ObjectId>> AllOutrefs(const System& system) {
  std::vector<std::pair<SiteId, ObjectId>> all;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    for (const auto& [ref, entry] : system.site(s).tables().outrefs()) {
      (void)entry;
      all.emplace_back(s, ref);
    }
  }
  return all;
}

/// Applies one fault. Returns false when the world offers no target for it.
bool Inject(System& system, const World& world, Fault fault, Rng& rng) {
  switch (fault) {
    case Fault::kFreeReachable:
    case Fault::kFreeThenReuseSlot:
    case Fault::kFreeThenReuseAsRoot: {
      const ObjectId victim = PickFreeable(system, rng);
      if (!victim.valid()) return false;
      system.site(victim.site).heap().Free(victim);
      if (fault == Fault::kFreeReachable) return true;
      const ObjectId reuse = system.NewObject(victim.site, 1);
      EXPECT_EQ(Heap::SlotOfIndex(reuse.index),
                Heap::SlotOfIndex(victim.index));
      if (fault == Fault::kFreeThenReuseAsRoot) system.SetPersistentRoot(reuse);
      return true;
    }
    case Fault::kFreeAppRoot:
      system.site(1).heap().Free(world.app_root);
      return true;
    case Fault::kFreePinnedTarget:
      system.site(2).heap().Free(world.pinned);
      return true;
    case Fault::kLeftoverGarbage: {
      system.NewObject(static_cast<SiteId>(rng.NextBelow(kGraphSites)), 0);
      const ObjectId a = system.NewObject(1, 1);
      const ObjectId b = system.NewObject(3, 1);
      system.Wire(a, 0, b);
      system.Wire(b, 0, a);
      return true;
    }
    case Fault::kRemoveOutref: {
      // Prefer a target a regrown object shares with an older holder.
      std::vector<std::pair<SiteId, ObjectId>> held;
      for (const ObjectId young : world.regrown) {
        const Site& site = system.site(young.site);
        for (const ObjectId target : site.heap().Get(young).slots) {
          if (target.valid() && target.site != young.site &&
              site.tables().FindOutref(target) != nullptr) {
            held.emplace_back(young.site, target);
          }
        }
      }
      if (held.empty()) held = AllOutrefs(system);
      if (held.empty()) return false;
      const auto [site, target] = held[rng.NextBelow(held.size())];
      system.site(site).tables().RemoveOutref(target);
      return true;
    }
    case Fault::kRemoveInrefSource: {
      const auto all = AllOutrefs(system);
      if (all.empty()) return false;
      const auto [site, ref] = all[rng.NextBelow(all.size())];
      system.site(ref.site).tables().RemoveInrefSource(ref, site);
      return true;
    }
    case Fault::kFreeOutrefTarget: {
      std::vector<ObjectId> targets;
      for (const auto& [site, ref] : AllOutrefs(system)) {
        (void)site;
        if (system.ObjectExists(ref) && !IsPersistentRoot(system, ref)) {
          targets.push_back(ref);
        }
      }
      if (targets.empty()) return false;
      const ObjectId target = targets[rng.NextBelow(targets.size())];
      system.site(target.site).heap().Free(target);
      return true;
    }
    case Fault::kClearInsets:
      const_cast<SiteBackInfo&>(system.site(kFarSite).back_info())
          .outref_insets.clear();
      return true;
  }
  return false;
}

/// The reference check each fault is aimed at.
const std::string& Aimed(const Answers& answers, Fault fault) {
  switch (fault) {
    case Fault::kFreeReachable:
    case Fault::kFreeThenReuseSlot:
    case Fault::kFreeThenReuseAsRoot:
    case Fault::kFreeAppRoot:
    case Fault::kFreePinnedTarget:
      return answers.safety;
    case Fault::kLeftoverGarbage:
      return answers.completeness;
    case Fault::kRemoveOutref:
    case Fault::kRemoveInrefSource:
    case Fault::kFreeOutrefTarget:
      return answers.integrity;
    case Fault::kClearInsets:
      return answers.local_safety;
  }
  return answers.safety;
}

class OracleDifferential : public ::testing::TestWithParam<Fault> {};

TEST_P(OracleDifferential, MatchesSetBasedChecks) {
  const Fault fault = GetParam();
  int tripped = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    CollectorConfig config;
    config.suspicion_threshold = 2;
    config.estimated_cycle_length = 4;
    System system(kGraphSites + 1, config, NetworkConfig{}, seed);
    const World world = BuildWorld(system, seed);
    const std::string where =
        std::string(FaultName(fault)) + " seed " + std::to_string(seed);
    ExpectSameAnswers(system, where + ", before the fault");
    Rng rng(seed * 7919);
    if (!Inject(system, world, fault, rng)) continue;
    const Answers after = ExpectSameAnswers(system, where + ", after it");
    if (!Aimed(after, fault).empty()) ++tripped;
  }
  // The fault must trip the check it aims at somewhere, or the comparison
  // above only ever compared empty strings.
  EXPECT_GT(tripped, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Faults, OracleDifferential,
    ::testing::Values(Fault::kFreeReachable, Fault::kFreeThenReuseSlot,
                      Fault::kFreeThenReuseAsRoot, Fault::kFreeAppRoot,
                      Fault::kFreePinnedTarget, Fault::kLeftoverGarbage,
                      Fault::kRemoveOutref, Fault::kRemoveInrefSource,
                      Fault::kFreeOutrefTarget, Fault::kClearInsets),
    [](const ::testing::TestParamInfo<Fault>& info) {
      return std::string(FaultName(info.param));
    });

}  // namespace
}  // namespace dgc
