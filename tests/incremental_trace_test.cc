// Tests for local-trace reuse: the quiescent short-circuit, the
// suspect-distance-drift refold, the mutation epoch and input snapshot that
// end reuse, crash-restart invalidation, the flat back-info map, and — the
// correctness anchor — runs where every reused trace is checked against a
// shadow full trace (LocalCollector::set_check_reuse_for_testing).
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "mutator/session.h"
#include "reuse_check.h"
#include "workload/builders.h"
#include "workload/churn.h"
#include "workload/figures.h"

namespace dgc {
namespace {

CollectorConfig ReuseConfig() {
  CollectorConfig config;
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 6;
  return config;
}

// --- Quiescent short-circuit -----------------------------------------------

TEST(IncrementalTraceTest, QuiescentSiteReusesThePreviousTrace) {
  System system(1, ReuseConfig());
  CheckEveryReuse(system);
  const ObjectId root = system.NewObject(0, 2);
  system.SetPersistentRoot(root);
  system.Wire(root, 0, system.NewObject(0, 0));
  system.Wire(root, 1, system.NewObject(0, 0));

  system.RunRound();  // full trace: builds the cache
  EXPECT_EQ(system.site(0).stats().quiescent_skips, 0u);
  const std::uint64_t marked_after_full =
      system.site(0).stats().objects_marked;
  EXPECT_EQ(marked_after_full, 3u);
  EXPECT_TRUE(system.site(0).collector().cache_valid());

  system.RunRounds(4);  // nothing mutates: every trace is a verbatim reuse
  EXPECT_EQ(system.site(0).stats().quiescent_skips, 4u);
  EXPECT_EQ(system.site(0).stats().objects_marked, marked_after_full);
  EXPECT_EQ(system.site(0).stats().local_traces, 5u);
  EXPECT_TRUE(system.ObjectExists(root));
}

TEST(IncrementalTraceTest, ReusedTracesReportNoMarks) {
  // A reused trace re-serves the cached trace's marks; counting them again
  // would credit the site with heap work it never did.
  System idle(1, ReuseConfig());
  CheckEveryReuse(idle);
  idle.SetPersistentRoot(idle.NewObject(0, 0));
  idle.RunRound();
  const std::uint64_t marked = idle.site(0).stats().objects_marked;
  EXPECT_EQ(marked, 1u);
  idle.RunRound();  // quiescent skip
  EXPECT_EQ(idle.site(0).stats().quiescent_skips, 1u);
  EXPECT_EQ(idle.site(0).stats().objects_marked, marked);

  // A garbage cycle left to ripen: its suspected distances grow every round
  // while both heaps stay unchanged, so each trace is a refold.
  CollectorConfig config = ReuseConfig();
  config.enable_back_tracing = false;
  System ripening(2, config);
  CheckEveryReuse(ripening);
  workload::BuildCycle(ripening, {.sites = 2, .objects_per_site = 1});
  ripening.RunRounds(8);
  const SiteStats before = ripening.site(0).stats();
  ripening.RunRound();
  const SiteStats& after = ripening.site(0).stats();
  EXPECT_EQ(after.quiescent_skips, before.quiescent_skips);
  EXPECT_GT(after.outsets_reused, before.outsets_reused);
  EXPECT_EQ(after.objects_marked, before.objects_marked);
}

// --- Mutations end reuse ----------------------------------------------------

TEST(IncrementalTraceTest, SlotWriteDirtiesAndForcesAFullTrace) {
  System system(1, ReuseConfig());
  CheckEveryReuse(system);
  const ObjectId root = system.NewObject(0, 2);
  system.SetPersistentRoot(root);
  const ObjectId child = system.NewObject(0, 0);
  system.Wire(root, 0, child);
  system.RunRounds(2);
  EXPECT_EQ(system.site(0).stats().quiescent_skips, 1u);

  // A session write bumps the heap's mutation epoch: the site stops being
  // quiescent and the severed child is swept by a real (full) trace.
  Session session(system, 0, 1);
  session.Hold(root);
  session.Write(root, 0, kInvalidObject);
  session.Release(root);

  const std::uint64_t skips_before = system.site(0).stats().quiescent_skips;
  const std::uint64_t marked_before = system.site(0).stats().objects_marked;
  system.RunRound();
  EXPECT_EQ(system.site(0).stats().quiescent_skips, skips_before);
  EXPECT_GT(system.site(0).stats().objects_marked, marked_before);
  EXPECT_FALSE(system.ObjectExists(child));
  // A trace that sweeps caches nothing: its sweep ends reuse anyway.
  EXPECT_FALSE(system.site(0).collector().cache_valid());
  system.RunRound();
  EXPECT_TRUE(system.site(0).collector().cache_valid());
}

TEST(IncrementalTraceTest, RootSetChangesInvalidateQuiescence) {
  System system(1, ReuseConfig());
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
  System system(2, ReuseConfig());
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
  CollectorConfig config = ReuseConfig();
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
  const std::uint64_t marked_mid = system.site(0).stats().objects_marked +
                                   system.site(1).stats().objects_marked;
  system.RunRounds(4);
  EXPECT_EQ(system.site(0).stats().objects_marked +
                system.site(1).stats().objects_marked,
            marked_mid);
}

// --- Crash-restart ----------------------------------------------------------

TEST(IncrementalTraceTest, CrashRestartDropsTheCacheAndDirtyKnowledge) {
  System system(2, ReuseConfig());
  CheckEveryReuse(system);
  const ObjectId target = system.NewObject(1, 0);
  workload::TetherToRoot(system, target, 1);
  system.RunRounds(3);
  EXPECT_TRUE(system.site(1).collector().cache_valid());

  system.site(1).CrashRestart();
  EXPECT_FALSE(system.site(1).collector().cache_valid());

  const std::uint64_t skips = system.site(1).stats().quiescent_skips;
  const std::uint64_t marked = system.site(1).stats().objects_marked;
  system.RunRound();  // must be a full trace
  EXPECT_EQ(system.site(1).stats().quiescent_skips, skips);
  EXPECT_GT(system.site(1).stats().objects_marked, marked);
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
  System system(4, ReuseConfig(), net, seed);
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

class TwinFigures : public ::testing::TestWithParam<int> {};

TEST_P(TwinFigures, IncrementalTwinMatchesFullTwinEveryRound) {
  // A figure workload where every reused trace runs beside its full twin,
  // the shadow full trace, and must match it: reuse must fire, and all of
  // the figure's garbage (figure 5 has none) must still be reclaimed.
  const int figure = GetParam();
  System system(4, ReuseConfig(), {}, /*seed=*/17);
  CheckEveryReuse(system);
  switch (figure) {
    case 1:
      workload::BuildFigure1(system);
      break;
    case 4:
      workload::BuildFigure4(system, /*close_scc=*/true);
      break;
    default:
      workload::BuildFigure5(system, /*with_second_source=*/true);
      break;
  }
  system.RunRounds(12);
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << system.CheckCompleteness();
  std::uint64_t skips = 0;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    skips += system.site(s).stats().quiescent_skips;
  }
  EXPECT_GT(skips, 0u);
}

INSTANTIATE_TEST_SUITE_P(Figures, TwinFigures, ::testing::Values(1, 4, 5));

}  // namespace
}  // namespace dgc
