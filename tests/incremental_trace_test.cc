// Tests for incremental local traces: the quiescent short-circuit, the
// suspect-distance-drift refold, mutation-driven dirty tracking through the
// heap/barrier choke points, crash-restart invalidation, the flat back-info
// delta maintenance, and — the correctness anchor — differential runs where
// every reused trace is checked against a shadow full trace
// (LocalCollector::set_check_reuse_for_testing).
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "backinfo/site_back_info.h"
#include "common/rng.h"
#include "core/system.h"
#include "mutator/session.h"
#include "workload/builders.h"
#include "workload/churn.h"
#include "workload/figures.h"

namespace dgc {
namespace {

CollectorConfig IncrementalConfig() {
  CollectorConfig config;
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 6;
  config.incremental_trace = true;
  return config;
}

/// Makes every site check each reused trace against a shadow full trace.
void CheckEveryReuse(System& system) {
  for (SiteId s = 0; s < system.site_count(); ++s) {
    system.site(s).collector().set_check_reuse_for_testing(true);
  }
}

// --- Quiescent short-circuit -----------------------------------------------

TEST(IncrementalTraceTest, QuiescentSiteReusesThePreviousTrace) {
  System system(1, IncrementalConfig());
  CheckEveryReuse(system);
  const ObjectId root = system.NewObject(0, 2);
  system.SetPersistentRoot(root);
  system.Wire(root, 0, system.NewObject(0, 0));
  system.Wire(root, 1, system.NewObject(0, 0));

  system.RunRound();  // full trace: builds the cache
  EXPECT_EQ(system.site(0).stats().quiescent_skips, 0u);
  const std::uint64_t retraced_after_full =
      system.site(0).stats().objects_retraced;
  EXPECT_EQ(retraced_after_full, 3u);
  EXPECT_TRUE(system.site(0).collector().cache_valid());
  EXPECT_EQ(system.site(0).heap().dirty_object_count(), 0u);

  system.RunRounds(4);  // nothing mutates: every trace is a verbatim reuse
  EXPECT_EQ(system.site(0).stats().quiescent_skips, 4u);
  EXPECT_EQ(system.site(0).stats().objects_retraced, retraced_after_full);
  EXPECT_EQ(system.site(0).stats().local_traces, 5u);
  EXPECT_TRUE(system.ObjectExists(root));
}

TEST(IncrementalTraceTest, KnobOffNeverSkipsAndReportsNoIncrementalWork) {
  CollectorConfig config = IncrementalConfig();
  config.incremental_trace = false;
  System system(1, config);
  const ObjectId root = system.NewObject(0, 1);
  system.SetPersistentRoot(root);
  system.RunRounds(5);
  EXPECT_EQ(system.site(0).stats().quiescent_skips, 0u);
  EXPECT_EQ(system.site(0).stats().objects_retraced, 0u);
  EXPECT_EQ(system.site(0).stats().outsets_reused, 0u);
}

// --- Dirty tracking through the mutation choke points ----------------------

TEST(IncrementalTraceTest, SlotWriteDirtiesAndForcesAFullTrace) {
  System system(1, IncrementalConfig());
  CheckEveryReuse(system);
  const ObjectId root = system.NewObject(0, 2);
  system.SetPersistentRoot(root);
  const ObjectId child = system.NewObject(0, 0);
  system.Wire(root, 0, child);
  system.RunRounds(2);
  EXPECT_EQ(system.site(0).stats().quiescent_skips, 1u);

  // A session write is observed by the heap's write barrier: the site stops
  // being quiescent and the severed child is swept by a real (full) trace.
  Session session(system, 0, 1);
  session.Hold(root);
  session.Write(root, 0, kInvalidObject);
  EXPECT_GT(system.site(0).heap().dirty_object_count(), 0u);
  session.Release(root);

  const std::uint64_t skips_before = system.site(0).stats().quiescent_skips;
  const std::uint64_t retraced_before =
      system.site(0).stats().objects_retraced;
  system.RunRound();
  EXPECT_EQ(system.site(0).stats().quiescent_skips, skips_before);
  EXPECT_GT(system.site(0).stats().objects_retraced, retraced_before);
  EXPECT_FALSE(system.ObjectExists(child));
}

TEST(IncrementalTraceTest, RootSetChangesInvalidateQuiescence) {
  System system(1, IncrementalConfig());
  CheckEveryReuse(system);
  const ObjectId a = system.NewObject(0, 0);
  system.SetPersistentRoot(a);
  system.RunRounds(2);
  const std::uint64_t skips = system.site(0).stats().quiescent_skips;
  EXPECT_GT(skips, 0u);

  const ObjectId b = system.NewObject(0, 0);  // allocation dirties the heap
  system.SetPersistentRoot(b);
  system.RunRound();
  EXPECT_EQ(system.site(0).stats().quiescent_skips, skips);
  system.RunRound();  // quiescent again around the new root set
  EXPECT_EQ(system.site(0).stats().quiescent_skips, skips + 1);
}

TEST(IncrementalTraceTest, RemoteBarrierActivityInvalidatesQuiescence) {
  // A new inref appearing at the owner changes its trace inputs, which the
  // snapshot comparison must catch even though the owner's heap (and hence
  // its mutation epoch) never changed.
  System system(2, IncrementalConfig());
  CheckEveryReuse(system);
  const ObjectId target = system.NewObject(1, 0);
  const ObjectId tether = workload::TetherToRoot(system, target, 1);
  (void)tether;
  system.RunRounds(2);
  const std::uint64_t skips = system.site(1).stats().quiescent_skips;
  EXPECT_GT(skips, 0u);
  const std::uint64_t epoch_before = system.site(1).heap().mutation_epoch();

  const ObjectId holder = system.NewObject(0, 1);
  system.SetPersistentRoot(holder);
  system.Wire(holder, 0, target);  // new inref source lands at site 1
  EXPECT_EQ(system.site(1).heap().mutation_epoch(), epoch_before);
  system.RunRound();
  EXPECT_EQ(system.site(1).stats().quiescent_skips, skips);
  ASSERT_NE(system.site(1).tables().FindInref(target), nullptr);
  EXPECT_EQ(system.site(1).tables().FindInref(target)->sources.size(), 1u);
}

// --- Suspect-distance drift (the refold reuse level) -----------------------

TEST(IncrementalTraceTest, RipeningCycleRefoldsDistancesWithoutRetracing) {
  // A cross-site garbage cycle's inref distances grow by one every epoch
  // (§3): the heap is quiescent but the trace inputs drift — exactly the
  // refold level. The reuse check tests each refold against a shadow
  // full trace, and back tracing is disabled so ripening runs forever.
  CollectorConfig config = IncrementalConfig();
  config.enable_back_tracing = false;
  System system(2, config);
  CheckEveryReuse(system);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  (void)cycle;
  system.RunRounds(8);

  std::uint64_t reused = 0;
  for (SiteId s = 0; s < 2; ++s) reused += system.site(s).stats().outsets_reused;
  EXPECT_GT(reused, 0u);
  // Once suspected and drifting, traces stop re-visiting the heap.
  const std::uint64_t retraced_mid =
      system.site(0).stats().objects_retraced +
      system.site(1).stats().objects_retraced;
  system.RunRounds(4);
  EXPECT_EQ(system.site(0).stats().objects_retraced +
                system.site(1).stats().objects_retraced,
            retraced_mid);
}

// --- Crash-restart ----------------------------------------------------------

TEST(IncrementalTraceTest, CrashRestartDropsTheCacheAndDirtyKnowledge) {
  System system(2, IncrementalConfig());
  CheckEveryReuse(system);
  const ObjectId target = system.NewObject(1, 0);
  workload::TetherToRoot(system, target, 1);
  system.RunRounds(3);
  EXPECT_TRUE(system.site(1).collector().cache_valid());

  system.site(1).CrashRestart();
  EXPECT_FALSE(system.site(1).collector().cache_valid());
  // With no trustworthy dirty record, every live object is conservatively
  // dirty until the next full trace consumes the sets.
  EXPECT_EQ(system.site(1).heap().dirty_object_count(),
            system.site(1).heap().object_count());

  const std::uint64_t skips = system.site(1).stats().quiescent_skips;
  const std::uint64_t retraced = system.site(1).stats().objects_retraced;
  system.RunRound();  // must be a full trace
  EXPECT_EQ(system.site(1).stats().quiescent_skips, skips);
  EXPECT_GT(system.site(1).stats().objects_retraced, retraced);
  EXPECT_EQ(system.site(1).heap().dirty_object_count(), 0u);
  EXPECT_TRUE(system.ObjectExists(target));
}

// --- Differential property tests over real workloads -----------------------

class DifferentialChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialChurn, EveryReuseMatchesAShadowFullTrace) {
  // The reuse check makes the collector itself the oracle: every
  // quiescent skip and every refold also runs the full trace and DGC_CHECKs
  // semantic identity. Any divergence aborts the run (and fails the test).
  const std::uint64_t seed = GetParam();
  NetworkConfig net;
  net.latency = 6;
  net.latency_jitter = 6;
  System system(4, IncrementalConfig(), net, seed);
  CheckEveryReuse(system);
  workload::ChurnDriver driver(system, Rng(seed * 2654435761ULL));
  workload::ChurnSpec spec;
  spec.steps = 50;
  driver.Run(spec);
  EXPECT_NO_THROW(driver.Quiesce());
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << system.CheckReferentialIntegrity();
  EXPECT_TRUE(system.CheckLocalSafetyInvariant().empty())
      << system.CheckLocalSafetyInvariant();
  // The differential assertions only have bite if reuse actually fired.
  std::uint64_t skips = 0;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    skips += system.site(s).stats().quiescent_skips;
  }
  EXPECT_GT(skips, 0u) << "no trace was ever reused; differential vacuous";
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialChurn,
                         ::testing::Range<std::uint64_t>(1, 11));

// Serializes the observable per-site collector state that incremental mode
// must not change: tables (distances, cleanliness, flags) and back info.
std::string DumpObservableState(const System& system) {
  std::ostringstream os;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const Site& site = system.site(s);
    os << "site " << s << " objects " << site.heap().object_count() << '\n';
    for (const auto& [obj, entry] : site.tables().inrefs()) {
      os << "  in " << obj << " d=" << entry.distance()
         << " flag=" << entry.garbage_flagged << '\n';
    }
    for (const auto& [ref, entry] : site.tables().outrefs()) {
      os << "  out " << ref << " d=" << entry.distance
         << " clean=" << entry.clean() << '\n';
    }
    for (const auto& [inref, outset] : site.back_info().inref_outsets) {
      os << "  outset " << inref << ":";
      for (const ObjectId o : outset) os << ' ' << o;
      os << '\n';
    }
    for (const auto& [outref, inset] : site.back_info().outref_insets) {
      os << "  inset " << outref << ":";
      for (const ObjectId o : inset) os << ' ' << o;
      os << '\n';
    }
  }
  return os.str();
}

class TwinFigures : public ::testing::TestWithParam<int> {};

TEST_P(TwinFigures, IncrementalTwinMatchesFullTwinEveryRound) {
  // Two identically seeded systems running a figure workload, one with the
  // knob on (plus differential self-checks) and one with it off, must agree
  // on every observable after every round.
  const int figure = GetParam();
  CollectorConfig full_config = IncrementalConfig();
  full_config.incremental_trace = false;
  System full(4, full_config, {}, /*seed=*/17);
  System inc(4, IncrementalConfig(), {}, /*seed=*/17);
  CheckEveryReuse(inc);
  for (System* system : {&full, &inc}) {
    switch (figure) {
      case 1:
        workload::BuildFigure1(*system);
        break;
      case 4:
        workload::BuildFigure4(*system, /*close_scc=*/true);
        break;
      default:
        workload::BuildFigure5(*system, /*with_second_source=*/true);
        break;
    }
  }
  for (int round = 0; round < 12; ++round) {
    full.RunRound();
    inc.RunRound();
    EXPECT_EQ(DumpObservableState(full), DumpObservableState(inc))
        << "figure " << figure << " diverged at round " << round;
  }
  EXPECT_EQ(full.TotalObjectsReclaimed(), inc.TotalObjectsReclaimed());
  std::uint64_t skips = 0;
  for (SiteId s = 0; s < inc.site_count(); ++s) {
    skips += inc.site(s).stats().quiescent_skips;
  }
  EXPECT_GT(skips, 0u);
}

INSTANTIATE_TEST_SUITE_P(Figures, TwinFigures, ::testing::Values(1, 4, 5));

// --- Flat back-info delta maintenance --------------------------------------

TEST(OutsetMapTest, BehavesLikeASortedMap) {
  OutsetMap map;
  const ObjectId a{1, 5}, b{1, 2}, c{2, 1};
  const std::vector<ObjectId> outset_a = {ObjectId{9, 1}};
  const std::vector<ObjectId> outset_b = {ObjectId{9, 2}};
  const std::vector<ObjectId> outset_c = {ObjectId{9, 3}};
  map[a] = outset_a;
  map[b] = outset_b;
  map.emplace(c, outset_c);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_TRUE(map.contains(a));
  EXPECT_EQ(map.at(b), outset_b);
  // Iteration is key-ordered regardless of insertion order.
  std::vector<ObjectId> keys;
  for (const auto& [key, value] : map) {
    (void)value;
    keys.push_back(key);
  }
  EXPECT_EQ(keys, (std::vector<ObjectId>{b, a, c}));
  EXPECT_EQ(map.erase(b), 1u);
  EXPECT_EQ(map.erase(b), 0u);
  EXPECT_EQ(map.find(b), map.end());
  EXPECT_EQ(map.size(), 2u);
}

TEST(OutsetDeltaTest, DeltaMatchesFullRecomputeAcrossRandomEdits) {
  // Property: starting from the same back info, ApplyOutsetDelta must land on
  // exactly what assigning the outset and rebuilding the inverse would.
  Rng rng(20260806);
  SiteBackInfo delta_maintained;
  for (int edit = 0; edit < 200; ++edit) {
    const ObjectId inref{0, 1 + rng.NextBelow(6)};
    std::vector<ObjectId> outset;
    for (std::uint64_t r = 1; r <= 8; ++r) {
      if (rng.NextBool(0.4)) outset.push_back(ObjectId{1, r});
    }
    const std::size_t ops = delta_maintained.ApplyOutsetDelta(inref, outset);
    (void)ops;
    SiteBackInfo rebuilt;
    rebuilt.inref_outsets = delta_maintained.inref_outsets;
    rebuilt.RecomputeInsets();
    ASSERT_EQ(rebuilt.outref_insets, delta_maintained.outref_insets)
        << "divergence after edit " << edit;
  }
}

TEST(OutsetDeltaTest, DeltaOpsCountOnlyChangedMemberships) {
  SiteBackInfo info;
  const ObjectId i1{0, 1};
  const ObjectId o1{1, 1}, o2{1, 2}, o3{1, 3};
  EXPECT_EQ(info.ApplyOutsetDelta(i1, {o1, o2}), 2u);
  EXPECT_EQ(info.ApplyOutsetDelta(i1, {o1, o2}), 0u);  // no-op edit
  EXPECT_EQ(info.ApplyOutsetDelta(i1, {o2, o3}), 2u);  // -o1 +o3
  EXPECT_EQ(info.ApplyOutsetDelta(i1, {}), 2u);        // removal
  EXPECT_TRUE(info.inref_outsets.empty());
  EXPECT_TRUE(info.outref_insets.empty());
}

}  // namespace
}  // namespace dgc
