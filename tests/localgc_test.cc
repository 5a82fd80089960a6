// Tests for the local tracing collector: marking, sweeping, distance
// propagation (Section 3), outref trimming, update messages, suspect
// handling, and interaction with garbage-flagged inrefs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.h"
#include "mutator/session.h"
#include "reuse_check.h"
#include "workload/builders.h"

namespace dgc {
namespace {

CollectorConfig NoBackTracing(Distance threshold = 2) {
  CollectorConfig config;
  config.suspicion_threshold = threshold;
  config.enable_back_tracing = false;
  return config;
}

TEST(LocalGcTest, SweepsLocalGarbageKeepsRooted) {
  System system(1, NoBackTracing());
  const ObjectId root = system.NewObject(0, 1);
  system.SetPersistentRoot(root);
  const ObjectId kept = system.NewObject(0, 0);
  const ObjectId dead1 = system.NewObject(0, 1);
  const ObjectId dead2 = system.NewObject(0, 0);
  system.Wire(root, 0, kept);
  system.Wire(dead1, 0, dead2);
  system.RunRound();
  EXPECT_TRUE(system.ObjectExists(root));
  EXPECT_TRUE(system.ObjectExists(kept));
  EXPECT_FALSE(system.ObjectExists(dead1));
  EXPECT_FALSE(system.ObjectExists(dead2));
}

TEST(LocalGcTest, LocalCycleCollectedBySingleSite) {
  System system(1, NoBackTracing());
  const ObjectId a = system.NewObject(0, 1);
  const ObjectId b = system.NewObject(0, 1);
  system.Wire(a, 0, b);
  system.Wire(b, 0, a);
  system.RunRound();
  EXPECT_FALSE(system.ObjectExists(a));
  EXPECT_FALSE(system.ObjectExists(b));
}

TEST(LocalGcTest, InrefKeepsObjectAliveEvenWhenLocallyUnreachable) {
  System system(2, NoBackTracing());
  const ObjectId target = system.NewObject(1, 0);
  const ObjectId holder = system.NewObject(0, 1);
  system.SetPersistentRoot(holder);
  system.Wire(holder, 0, target);
  system.RunRounds(3);
  EXPECT_TRUE(system.ObjectExists(target));
}

TEST(LocalGcTest, DroppedOutrefTriggersRemoteCollection) {
  System system(2, NoBackTracing());
  const ObjectId target = system.NewObject(1, 0);
  const ObjectId holder = system.NewObject(0, 1);
  system.SetPersistentRoot(holder);
  system.Wire(holder, 0, target);
  system.RunRound();
  system.Unwire(holder, 0);
  // Holder's next trace drops the outref and sends an update; the target's
  // next trace collects the object (two-step locality of §2).
  system.RunRound();
  EXPECT_FALSE(system.ObjectExists(target));
  EXPECT_EQ(system.site(0).tables().FindOutref(target), nullptr);
  EXPECT_EQ(system.site(1).tables().FindInref(target), nullptr);
}

TEST(LocalGcTest, DistancePropagatesAlongRemoteChains) {
  // root@0 -> a@1 -> b@2 -> c@3: inref distances 1, 2, 3.
  System system(4, NoBackTracing(/*threshold=*/10));
  const ObjectId root = system.NewObject(0, 1);
  system.SetPersistentRoot(root);
  const ObjectId a = system.NewObject(1, 1);
  const ObjectId b = system.NewObject(2, 1);
  const ObjectId c = system.NewObject(3, 0);
  system.Wire(root, 0, a);
  system.Wire(a, 0, b);
  system.Wire(b, 0, c);
  system.RunRounds(3);
  EXPECT_EQ(system.site(1).tables().FindInref(a)->distance(), 1u);
  EXPECT_EQ(system.site(2).tables().FindInref(b)->distance(), 2u);
  EXPECT_EQ(system.site(3).tables().FindInref(c)->distance(), 3u);
}

TEST(LocalGcTest, DistanceTakesMinimumOverPaths) {
  // c reachable via root->c (distance 1) and root->a@1->c (distance 2).
  System system(3, NoBackTracing(10));
  const ObjectId root = system.NewObject(0, 2);
  system.SetPersistentRoot(root);
  const ObjectId a = system.NewObject(1, 1);
  const ObjectId c = system.NewObject(2, 0);
  system.Wire(root, 0, a);
  system.Wire(root, 1, c);
  system.Wire(a, 0, c);
  system.RunRounds(3);
  EXPECT_EQ(system.site(2).tables().FindInref(c)->distance(), 1u);
}

TEST(LocalGcTest, DistanceRecoversWhenShorterPathAppears) {
  System system(3, NoBackTracing(10));
  const ObjectId root = system.NewObject(0, 2);
  system.SetPersistentRoot(root);
  const ObjectId a = system.NewObject(1, 1);
  const ObjectId c = system.NewObject(2, 0);
  system.Wire(root, 0, a);
  system.Wire(a, 0, c);
  system.RunRounds(3);
  EXPECT_EQ(system.site(2).tables().FindInref(c)->distance(), 2u);
  system.Wire(root, 1, c);  // new direct edge
  system.RunRounds(3);
  EXPECT_EQ(system.site(2).tables().FindInref(c)->distance(), 1u);
}

TEST(LocalGcTest, GarbageCycleDistancesExceedAnyThresholdEventually) {
  CollectorConfig config = NoBackTracing(/*threshold=*/5);
  System system(2, config);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  for (int round = 0; round < 12; ++round) system.RunRound();
  const InrefEntry* inref =
      system.site(0).tables().FindInref(cycle.objects[0]);
  ASSERT_NE(inref, nullptr);
  // Theorem (§3): after d rounds, estimated distances are at least d.
  EXPECT_GE(inref->distance(), 12u);
}

TEST(LocalGcTest, SuspectedInrefGetsOutsetComputed) {
  CollectorConfig config = NoBackTracing(/*threshold=*/2);
  System system(2, config);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  system.RunRounds(5);  // distances exceed 2: both inrefs suspected
  const auto& info0 = system.site(0).back_info();
  ASSERT_EQ(info0.inref_outsets.size(), 1u);
  // Site 0's inref (cycle object 0) locally reaches the outref to object 1.
  EXPECT_EQ(info0.inref_outsets.begin()->first, cycle.objects[0]);
  EXPECT_EQ(info0.inref_outsets.begin()->second,
            std::vector<ObjectId>{cycle.objects[1]});
}

TEST(LocalGcTest, CleanInrefsProduceNoBackInfo) {
  System system(2, NoBackTracing(/*threshold=*/5));
  const ObjectId target = system.NewObject(1, 0);
  const ObjectId holder = system.NewObject(0, 1);
  system.SetPersistentRoot(holder);
  system.Wire(holder, 0, target);
  system.RunRounds(4);
  EXPECT_TRUE(system.site(1).back_info().inref_outsets.empty());
  EXPECT_TRUE(system.site(0).back_info().outref_insets.empty());
}

TEST(LocalGcTest, GarbageFlaggedInrefIsNotARoot) {
  System system(2, NoBackTracing());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  system.RunRound();
  // Manually condemn both inrefs (what a completed back trace's report does).
  system.site(0).tables().FindInref(cycle.objects[0])->garbage_flagged = true;
  system.site(1).tables().FindInref(cycle.objects[1])->garbage_flagged = true;
  system.RunRounds(3);
  EXPECT_FALSE(system.ObjectExists(cycle.objects[0]));
  EXPECT_FALSE(system.ObjectExists(cycle.objects[1]));
  // Entries removed through regular update messages (§4.5).
  EXPECT_EQ(system.site(0).tables().FindInref(cycle.objects[0]), nullptr);
  EXPECT_EQ(system.site(1).tables().FindInref(cycle.objects[1]), nullptr);
}

TEST(LocalGcTest, AppRootsKeepObjectsAlive) {
  System system(1, NoBackTracing());
  Session session(system, 0, /*id=*/1);
  const ObjectId held = session.Create(1);
  system.RunRounds(2);
  EXPECT_TRUE(system.ObjectExists(held));
  session.Release(held);
  system.RunRound();
  EXPECT_FALSE(system.ObjectExists(held));
}

TEST(LocalGcTest, PinnedOutrefSurvivesTrimmingAndStaysClean) {
  System system(2, NoBackTracing());
  Session session(system, 0, 1);
  const ObjectId remote = system.NewObject(1, 0);
  const ObjectId tether = workload::TetherToRoot(system, remote, 1);
  const ObjectId got = session.LoadRoot(remote);  // pins the outref at site 0
  EXPECT_EQ(got, remote);
  system.Unwire(tether, 0);
  system.RunRounds(3);
  // No heap path at site 0 reaches the outref, but the session variable pins
  // it: the object must survive.
  EXPECT_TRUE(system.ObjectExists(remote));
  const OutrefEntry* outref = system.site(0).tables().FindOutref(remote);
  ASSERT_NE(outref, nullptr);
  EXPECT_TRUE(outref->clean());
  session.Release(remote);
  system.RunRounds(3);
  EXPECT_FALSE(system.ObjectExists(remote));
}

TEST(LocalGcTest, UpdateMessagesOnlySentOnDistanceChange) {
  CollectorConfig config = NoBackTracing(10);
  config.update_refresh_period = 0;  // isolate the change-driven path
  System system(2, config);
  const ObjectId target = system.NewObject(1, 0);
  const ObjectId holder = system.NewObject(0, 1);
  system.SetPersistentRoot(holder);
  system.Wire(holder, 0, target);
  system.RunRounds(2);  // distance settles at 1
  const auto sent_before = system.site(0).stats().updates_sent;
  system.RunRounds(3);  // steady state: no distance changes
  EXPECT_EQ(system.site(0).stats().updates_sent, sent_before);
}

// Each object a full trace sees is marked clean, marked suspect or swept,
// exactly once, whether the trace frees something or nothing.
TEST(LocalGcTest, TraceResultStatsAreConsistent) {
  constexpr Distance kThreshold = 2;
  System system(2, NoBackTracing(kThreshold));
  Site& site = system.site(0);
  // A root fanning out to three leaves, and an interior chain below it.
  const ObjectId root = system.NewObject(0, 4);
  system.SetPersistentRoot(root);
  for (std::size_t i = 0; i < 3; ++i) {
    system.Wire(root, i, system.NewObject(0, 0));
  }
  const ObjectId chain = system.NewObject(0, 1);
  system.Wire(root, 3, chain);
  system.Wire(chain, 0, system.NewObject(0, 0));
  // A garbage cycle through site 1: its inref at `entry` ripens past the
  // threshold, and `entry` alone reaches `inner`.
  const ObjectId entry = system.NewObject(0, 2);
  const ObjectId inner = system.NewObject(0, 0);
  const ObjectId away = system.NewObject(1, 1);
  system.Wire(entry, 0, away);
  system.Wire(entry, 1, inner);
  system.Wire(away, 0, entry);
  system.RunRounds(2 * kThreshold + 2);
  const InrefEntry* ripe = site.tables().FindInref(entry);
  ASSERT_NE(ripe, nullptr);
  ASSERT_GT(ripe->distance(), kThreshold);
  const ObjectId unreachable = system.NewObject(0, 0);

  const std::uint64_t traces_before = site.stats().local_traces;
  const std::size_t live_first = site.heap().object_count();
  TraceResult first = site.ComputeLocalTrace();
  const LocalTraceStats& a = first.stats;
  EXPECT_EQ(a.quiescent_skips, 0u);
  EXPECT_EQ(a.objects_marked_clean, 6u);  // root, 3 leaves, chain of 2
  EXPECT_EQ(a.objects_marked_suspect, 2u);  // entry, inner
  EXPECT_EQ(a.suspected_inrefs, 1u);
  EXPECT_EQ(first.objects_to_free, std::vector<ObjectId>{unreachable});
  EXPECT_EQ(a.objects_swept, 1u);
  EXPECT_EQ(a.objects_marked_clean + a.objects_marked_suspect + a.objects_swept,
            live_first);
  site.CommitLocalTrace(std::move(first));
  EXPECT_FALSE(system.ObjectExists(unreachable));

  // The sweep changed the heap, so this trace is full too; it marks every
  // object and frees none.
  const std::size_t live_second = site.heap().object_count();
  TraceResult second = site.ComputeLocalTrace();
  const LocalTraceStats& b = second.stats;
  EXPECT_EQ(b.quiescent_skips, 0u);
  EXPECT_TRUE(second.objects_to_free.empty());
  EXPECT_EQ(b.objects_swept, 0u);
  EXPECT_EQ(b.objects_marked_clean + b.objects_marked_suspect, live_second);
  EXPECT_EQ(b.objects_marked_suspect, 2u);
  site.CommitLocalTrace(std::move(second));
  EXPECT_EQ(site.stats().local_traces, traces_before + 2);
}

// A full trace builds one back-information record. The reuses after it hand
// out that very record rather than copies, the next full trace builds a new
// one, and the site's record outlives the collector's cache and a crash.
TEST(LocalGcTest, ReusedTracesShareTheFullTracesBackInfo) {
  System system(2, NoBackTracing(/*threshold=*/2));
  CheckEveryReuse(system);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  system.RunRounds(5);  // both inrefs suspected
  Site& site = system.site(0);

  site.collector().InvalidateCache();
  TraceResult full = site.ComputeLocalTrace();
  ASSERT_NE(full.stats.objects_marked_suspect, 0u);  // a full trace
  ASSERT_TRUE(full.objects_to_free.empty());          // so it is cached
  const SiteBackInfo* built = full.back_info.get();
  const SiteBackInfo expected = *built;
  ASSERT_EQ(expected.inref_outsets.size(), 1u);
  ASSERT_EQ(expected.inref_outsets.begin()->first, cycle.objects[0]);
  site.CommitLocalTrace(std::move(full));
  EXPECT_EQ(&site.back_info(), built);

  // No input moved: a quiescent skip.
  TraceResult skip = site.ComputeLocalTrace();
  EXPECT_EQ(skip.stats.quiescent_skips, 1u);
  EXPECT_EQ(skip.back_info.get(), built);
  site.CommitLocalTrace(std::move(skip));
  EXPECT_EQ(&site.back_info(), built);

  // Site 1's next trace ripens the suspected inref's distance: a refold.
  system.SettleNetwork();
  system.site(1).StartLocalTrace();
  system.SettleNetwork();
  TraceResult refold = site.ComputeLocalTrace();
  EXPECT_EQ(refold.stats.quiescent_skips, 0u);
  EXPECT_EQ(refold.stats.objects_marked_suspect, 0u);
  EXPECT_EQ(refold.stats.outsets_reused, 1u);
  EXPECT_EQ(refold.back_info.get(), built);
  site.CommitLocalTrace(std::move(refold));

  // A heap write ends reuse: the full trace builds a record of its own,
  // with the same contents.
  system.NewObject(0, 0);
  TraceResult next = site.ComputeLocalTrace();
  EXPECT_NE(next.stats.objects_marked_suspect, 0u);
  EXPECT_NE(next.back_info.get(), built);
  EXPECT_EQ(*next.back_info, expected);
  const SiteBackInfo* rebuilt = next.back_info.get();
  site.CommitLocalTrace(std::move(next));
  EXPECT_EQ(&site.back_info(), rebuilt);

  // The site's record is its own reference, not the cache's.
  site.collector().InvalidateCache();
  EXPECT_EQ(site.back_info(), expected);
  site.CrashRestart();
  system.SettleNetwork();
  EXPECT_EQ(site.back_info(), expected);
  EXPECT_EQ(&site.back_info(), rebuilt);
}

// The collector's own check that every remote ref a heap object holds has
// an outref, in each phase that reads a remote slot. SetSlot writes the ref
// without the outref that System::Wire would create.
void ExpectNoOutrefViolation(Site& site) {
  try {
    (void)site.ComputeLocalTrace();
    ADD_FAILURE() << "trace accepted a remote ref with no outref";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find("with no outref"), std::string::npos)
        << e.what();
  }
}

TEST(LocalGcTest, CleanMarkRejectsRemoteRefWithoutOutref) {
  System system(2, NoBackTracing());
  const ObjectId root = system.NewObject(0, 1);
  system.SetPersistentRoot(root);
  const ObjectId remote = system.NewObject(1, 0);
  system.site(0).heap().SetSlot(root, 0, remote);
  ExpectNoOutrefViolation(system.site(0));
}

TEST(LocalGcTest, SuspectTraceRejectsRemoteRefWithoutOutref) {
  constexpr Distance kThreshold = 2;
  System system(2, NoBackTracing(kThreshold));
  // A garbage cycle whose inref at `entry` ripens past the threshold, so
  // only the suspect tracer reads entry's slots.
  const ObjectId entry = system.NewObject(0, 2);
  const ObjectId away = system.NewObject(1, 1);
  system.Wire(entry, 0, away);
  system.Wire(away, 0, entry);
  system.RunRounds(2 * kThreshold + 2);
  const InrefEntry* ripe = system.site(0).tables().FindInref(entry);
  ASSERT_NE(ripe, nullptr);
  ASSERT_GT(ripe->distance(), kThreshold);
  const ObjectId remote = system.NewObject(1, 0);
  system.site(0).heap().SetSlot(entry, 1, remote);
  ExpectNoOutrefViolation(system.site(0));
}

}  // namespace
}  // namespace dgc
