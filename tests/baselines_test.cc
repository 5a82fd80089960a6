// Tests for the Section 7 comparator collectors: coordinated global
// mark-sweep, Hughes timestamps, and migration-based cycle collection —
// each must actually collect cycles, and each must exhibit the structural
// weakness the paper criticizes it for.
#include <gtest/gtest.h>

#include "baselines/central_service.h"
#include "baselines/global_trace.h"
#include "baselines/group_trace.h"
#include "baselines/hughes.h"
#include "baselines/migration.h"
#include "core/system.h"
#include "workload/builders.h"

namespace dgc {
namespace {

CollectorConfig LocalOnly() {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.enable_back_tracing = false;
  return config;
}

// --- Coordinated global mark-sweep -------------------------------------------

TEST(GlobalTraceTest, CollectsCyclesAndPlainGarbage) {
  System system(3, LocalOnly());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 3, .objects_per_site = 1});
  const ObjectId live = system.NewObject(0, 0);
  system.SetPersistentRoot(live);
  const ObjectId dead = system.NewObject(1, 0);

  baselines::GlobalTraceCollector collector(system);
  const auto stats = collector.RunCycle();
  EXPECT_TRUE(stats.completed);
  EXPECT_EQ(stats.objects_swept, 4u);  // 3 cycle objects + dead
  EXPECT_TRUE(system.ObjectExists(live));
  EXPECT_FALSE(system.ObjectExists(dead));
  for (const ObjectId id : cycle.objects) {
    EXPECT_FALSE(system.ObjectExists(id));
  }
  EXPECT_GE(stats.gray_messages, 0u);
  EXPECT_GT(stats.control_messages, 0u);
}

TEST(GlobalTraceTest, MarksAcrossSites) {
  System system(2, LocalOnly());
  // live chain root@0 -> a@1 -> b@0: marking must cross sites both ways.
  const ObjectId root = system.NewObject(0, 1);
  system.SetPersistentRoot(root);
  const ObjectId a = system.NewObject(1, 1);
  const ObjectId b = system.NewObject(0, 0);
  system.Wire(root, 0, a);
  system.Wire(a, 0, b);
  baselines::GlobalTraceCollector collector(system);
  const auto stats = collector.RunCycle();
  EXPECT_TRUE(stats.completed);
  EXPECT_TRUE(system.ObjectExists(a));
  EXPECT_TRUE(system.ObjectExists(b));
  EXPECT_GE(stats.gray_messages, 2u);
}

TEST(GlobalTraceTest, CrashedSiteStallsTheWholeCollection) {
  System system(3, LocalOnly());
  workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  const ObjectId unrelated_dead = system.NewObject(0, 0);
  system.network().SetSiteDown(2, true);  // site 2 holds none of the garbage!
  baselines::GlobalTraceCollector collector(system);
  const auto stats = collector.RunCycle(/*max_wait=*/20'000);
  // The paper's criticism: a global trace "requires the cooperation of all
  // sites before it can collect any garbage".
  EXPECT_FALSE(stats.completed);
  EXPECT_TRUE(system.ObjectExists(unrelated_dead));
}

// --- Hughes timestamps ---------------------------------------------------------

TEST(HughesTest, CollectsCyclesOnceThresholdPasses) {
  System system(3, LocalOnly());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 3, .objects_per_site = 1});
  const ObjectId live_remote = system.NewObject(1, 0);
  workload::TetherToRoot(system, live_remote, 0);

  baselines::HughesCollector collector(system, /*lag_rounds=*/4);
  for (int round = 0; round < 20; ++round) collector.RunRound();
  for (const ObjectId id : cycle.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << id;
  }
  EXPECT_TRUE(system.ObjectExists(live_remote));
  EXPECT_GT(collector.threshold(), 0);
}

TEST(HughesTest, LiveChainSurvivesIndefinitely) {
  System system(4, LocalOnly());
  // Long live chain: timestamps lag by depth but the lagged threshold must
  // never overtake them.
  const ObjectId root = system.NewObject(0, 1);
  system.SetPersistentRoot(root);
  ObjectId previous = root;
  std::vector<ObjectId> chain;
  for (int i = 0; i < 6; ++i) {
    const ObjectId next = system.NewObject((i + 1) % 4, 1);
    system.Wire(previous, 0, next);
    chain.push_back(next);
    previous = next;
  }
  baselines::HughesCollector collector(system, /*lag_rounds=*/8);
  for (int round = 0; round < 30; ++round) collector.RunRound();
  for (const ObjectId id : chain) {
    EXPECT_TRUE(system.ObjectExists(id)) << id;
  }
}

TEST(HughesTest, OneCrashedSiteBlocksCollectionEverywhere) {
  System system(4, LocalOnly());
  const auto cycle = workload::BuildCycle(
      system, {.sites = 2, .objects_per_site = 1, .first_site = 0});
  baselines::HughesCollector collector(system, /*lag_rounds=*/3);
  // Site 3 crashes before anything happens — it holds NO part of the
  // cycle, yet the global threshold can never advance and the cycle is
  // never collected anywhere (the paper's criticism of Hughes).
  system.network().SetSiteDown(3, true);
  for (int round = 0; round < 25; ++round) collector.RunRound();
  EXPECT_EQ(collector.threshold(), 0);
  EXPECT_TRUE(system.ObjectExists(cycle.objects[0]));
  EXPECT_TRUE(system.ObjectExists(cycle.objects[1]));
  // Contrast: once the site recovers, collection resumes.
  system.network().SetSiteDown(3, false);
  for (int round = 0; round < 25; ++round) collector.RunRound();
  EXPECT_FALSE(system.ObjectExists(cycle.objects[0]));
  EXPECT_FALSE(system.ObjectExists(cycle.objects[1]));
}

// --- Central service -------------------------------------------------------------

TEST(CentralServiceTest, DetectsAndCollectsInterSiteCycles) {
  System system(3, LocalOnly());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 3, .objects_per_site = 1});
  const ObjectId live_remote = system.NewObject(1, 0);
  workload::TetherToRoot(system, live_remote, 0);
  system.RunRound();

  baselines::CentralServiceCollector service(system);
  service.RunCycle();
  EXPECT_EQ(service.stats().sites_reported, 3u);
  EXPECT_EQ(service.stats().inrefs_condemned, 3u);  // the whole ring
  system.RunRounds(3);  // local traces reclaim the condemned cycle
  for (const ObjectId id : cycle.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << id;
  }
  EXPECT_TRUE(system.ObjectExists(live_remote));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
}

TEST(CentralServiceTest, LiveCycleNotCondemned) {
  System system(2, LocalOnly());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  workload::TetherToRoot(system, cycle.head(), 0);
  system.RunRound();
  baselines::CentralServiceCollector service(system);
  service.RunCycle();
  EXPECT_EQ(service.stats().inrefs_condemned, 0u);
  system.RunRounds(3);
  EXPECT_TRUE(system.ObjectExists(cycle.objects[0]));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
}

TEST(CentralServiceTest, SilentSiteBlocksAllCollection) {
  System system(4, LocalOnly());
  // The cycle lives entirely on sites {0,1}; site 3 is down and holds
  // nothing of interest — yet the service cannot safely condemn anything.
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  system.RunRound();
  system.network().SetSiteDown(3, true);
  baselines::CentralServiceCollector service(system);
  service.RunCycle();
  EXPECT_LT(service.stats().sites_reported, 4u);
  EXPECT_EQ(service.stats().inrefs_condemned, 0u);
  system.RunRounds(3);
  EXPECT_TRUE(system.ObjectExists(cycle.objects[0]));
  // Recovery: the site returns, the next cycle condemns.
  system.network().SetSiteDown(3, false);
  service.RunCycle();
  system.RunRounds(3);
  EXPECT_FALSE(system.ObjectExists(cycle.objects[0]));
}

TEST(CentralServiceTest, SummaryBytesScaleWithAllReachabilityNotSuspects) {
  // The bottleneck figure: summary bytes grow with the LIVE structure too,
  // because the service needs full inref-outref reachability — where back
  // tracing's retained back info covers suspected iorefs only.
  System system(2, LocalOnly());
  // Large live structure: one root chain of 100 objects per site with a
  // remote hop at the end.
  for (SiteId s = 0; s < 2; ++s) {
    const ObjectId root = system.NewObject(s, 1);
    system.SetPersistentRoot(root);
    ObjectId previous = root;
    for (int i = 0; i < 100; ++i) {
      const ObjectId next = system.NewObject(s, 1);
      system.Wire(previous, 0, next);
      previous = next;
    }
    system.Wire(previous, 0, system.NewObject((s + 1) % 2, 0));
  }
  system.RunRound();
  baselines::CentralServiceCollector service(system);
  service.RunCycle();
  EXPECT_GT(service.stats().summary_bytes, 0u);
  // Back tracing's retained info on the same world: nothing is suspected,
  // so the per-site back information is empty.
  for (SiteId s = 0; s < 2; ++s) {
    EXPECT_EQ(system.site(s).back_info().stored_elements(), 0u);
  }
}

// --- Group tracing --------------------------------------------------------------

TEST(GroupTraceTest, CollectsCycleThatFitsInTheGroup) {
  System system(5, LocalOnly());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 3, .objects_per_site = 1});
  const ObjectId bystander = system.NewObject(4, 0);
  system.SetPersistentRoot(bystander);
  system.RunRounds(6);  // ripen suspicion
  baselines::GroupTraceCollector collector(system, /*max_group_sites=*/4);
  const auto group = collector.RunOnFirstSuspect();
  ASSERT_TRUE(group.has_value());
  EXPECT_EQ(group->size(), 3u);  // exactly the cycle's sites
  for (const ObjectId id : cycle.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << id;
  }
  EXPECT_TRUE(system.ObjectExists(bystander));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << system.CheckReferentialIntegrity();
}

TEST(GroupTraceTest, CycleLargerThanGroupBoundIsNeverCollected) {
  // The paper's criticism: "inter-group cycles may never be collected".
  System system(6, LocalOnly());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 6, .objects_per_site = 1});
  system.RunRounds(10);
  baselines::GroupTraceCollector collector(system, /*max_group_sites=*/4);
  for (int attempt = 0; attempt < 10; ++attempt) {
    const auto group = collector.RunOnFirstSuspect();
    ASSERT_TRUE(group.has_value());
    EXPECT_LE(group->size(), 4u);
  }
  // Ten attempts later the 6-site cycle is still fully alive: the two
  // out-of-group sites' references always look like roots.
  for (const ObjectId id : cycle.objects) {
    EXPECT_TRUE(system.ObjectExists(id)) << id;
  }
  // Contrast: back tracing reclaims it without any size bound.
  CollectorConfig bt;
  bt.suspicion_threshold = 2;
  bt.estimated_cycle_length = 8;
  System system2(6, bt);
  const auto cycle2 =
      workload::BuildCycle(system2, {.sites = 6, .objects_per_site = 1});
  system2.RunRounds(25);
  for (const ObjectId id : cycle2.objects) {
    EXPECT_FALSE(system2.ObjectExists(id)) << id;
  }
}

TEST(GroupTraceTest, LiveChainDragsExtraSitesIntoTheGroup) {
  // A 2-site garbage cycle pointing at a live chain across two more sites:
  // the group must include the chain's sites (no locality), where back
  // tracing would involve only the cycle's two sites.
  System system(5, LocalOnly());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  const auto chain = workload::AttachChain(system, cycle.objects[1], 1, 3);
  const ObjectId keeper = system.NewObject(4, 1);
  system.SetPersistentRoot(keeper);
  system.Wire(keeper, 0, chain.back());  // chain's tail is live
  system.RunRounds(8);
  baselines::GroupTraceCollector collector(system, /*max_group_sites=*/5);
  const auto group = collector.RunOnFirstSuspect();
  ASSERT_TRUE(group.has_value());
  EXPECT_GT(group->size(), 2u) << "group should exceed the cycle's sites";
  // Live chain survives; cycle dies.
  EXPECT_TRUE(system.ObjectExists(chain.back()));
  EXPECT_FALSE(system.ObjectExists(cycle.objects[0]));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
}

TEST(GroupTraceTest, LiveSuspectNotCollected) {
  System system(3, LocalOnly());
  // Live two-site loop beyond the suspicion threshold (distance 3-4).
  const ObjectId root = system.NewObject(2, 1);
  system.SetPersistentRoot(root);
  const ObjectId hop = system.NewObject(0, 1);
  const ObjectId p = system.NewObject(1, 1);
  const ObjectId q = system.NewObject(0, 1);
  system.Wire(root, 0, hop);
  system.Wire(hop, 0, p);
  system.Wire(p, 0, q);
  system.Wire(q, 0, p);
  system.RunRounds(6);
  baselines::GroupTraceCollector collector(system, /*max_group_sites=*/2);
  const auto group = collector.RunOnFirstSuspect();
  ASSERT_TRUE(group.has_value());
  EXPECT_TRUE(system.ObjectExists(p));
  EXPECT_TRUE(system.ObjectExists(q));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
}

// --- Migration -------------------------------------------------------------------

TEST(MigrationTest, ConvergesCycleToOneSiteAndCollects) {
  System system(3, LocalOnly());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 3, .objects_per_site = 1});
  // Extra chord: object 1 also holds object 0, so the first migrated
  // suspect has two remote holders and its move must patch a third-party
  // site.
  system.Wire(cycle.objects[1], 1, cycle.objects[0]);
  system.RunRounds(6);  // ripen distances past the migrate threshold

  baselines::MigrationCollector collector(system, /*migrate_threshold=*/4);
  const std::size_t migrations = collector.Converge();
  system.RunRounds(2);
  for (const ObjectId id : cycle.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << id;
  }
  EXPECT_GE(migrations, 2u);  // at least two objects had to move
  EXPECT_GT(collector.stats().bytes_moved, 0u);
  EXPECT_GT(collector.stats().patch_messages, 0u);
}

TEST(MigrationTest, LiveObjectsAreNotDisturbedBelowThreshold) {
  System system(3, LocalOnly());
  const ObjectId remote = system.NewObject(1, 0);
  workload::TetherToRoot(system, remote, 0);
  system.RunRounds(4);
  baselines::MigrationCollector collector(system, /*migrate_threshold=*/4);
  EXPECT_EQ(collector.MigrateOneSuspect(), std::nullopt);
  EXPECT_TRUE(system.ObjectExists(remote));
}

TEST(MigrationTest, PatchingKeepsGraphAndTablesConsistent) {
  System system(3, LocalOnly());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  // A live holder at site 2 also references a cycle member... it must be
  // patched when that member moves. (Keep the cycle live via this holder so
  // we can inspect the post-migration graph.)
  const ObjectId holder = system.NewObject(2, 1);
  system.SetPersistentRoot(holder);
  system.Wire(holder, 0, cycle.objects[1]);
  system.RunRounds(8);

  baselines::MigrationCollector collector(system, /*migrate_threshold=*/6);
  // Force-migrate the cycle member the holder points at, if suspected;
  // otherwise nothing moves and the test trivially holds.
  const auto moved = collector.MigrateOneSuspect();
  if (moved.has_value()) {
    EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
    EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
        << system.CheckReferentialIntegrity();
  }
}

TEST(MigrationTest, CostsScaleWithObjectPayload) {
  System system(2, LocalOnly());
  // Two-site cycle with fat objects (many slots): bytes_moved must reflect
  // the payload, unlike back tracing which never moves objects.
  const ObjectId a = system.NewObject(0, 16);
  const ObjectId b = system.NewObject(1, 16);
  system.Wire(a, 0, b);
  system.Wire(b, 0, a);
  system.RunRounds(6);
  baselines::MigrationCollector collector(system, /*migrate_threshold=*/4);
  collector.Converge();
  EXPECT_GE(collector.stats().bytes_moved, 16u * 8u);
}

}  // namespace
}  // namespace dgc
