// Tests for the workload generators themselves: the graphs they claim to
// build are the graphs they build.
#include <gtest/gtest.h>

#include "core/system.h"
#include "workload/builders.h"
#include "workload/figures.h"

namespace dgc {
namespace {

TEST(BuildCycleTest, RingOrderAndTables) {
  System system(3);
  const auto cycle = workload::BuildCycle(
      system, {.sites = 3, .objects_per_site = 2, .first_site = 0});
  ASSERT_EQ(cycle.objects.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const ObjectId from = cycle.objects[i];
    const ObjectId to = cycle.objects[(i + 1) % 6];
    EXPECT_EQ(system.site(from.site).heap().GetSlot(from, 0), to);
    if (from.site != to.site) {
      EXPECT_NE(system.site(from.site).tables().FindOutref(to), nullptr);
      const InrefEntry* inref = system.site(to.site).tables().FindInref(to);
      ASSERT_NE(inref, nullptr);
      EXPECT_TRUE(inref->sources.contains(from.site));
    }
  }
}

TEST(BuildCycleTest, FirstSiteOffset) {
  System system(4);
  const auto cycle = workload::BuildCycle(
      system, {.sites = 2, .objects_per_site = 1, .first_site = 2});
  EXPECT_EQ(cycle.objects[0].site, 2u);
  EXPECT_EQ(cycle.objects[1].site, 3u);
}

TEST(TetherTest, RootKeepsTargetAlive) {
  System system(2);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  const ObjectId tether = workload::TetherToRoot(system, cycle.head(), 0);
  const auto live = system.ComputeLiveSet();
  EXPECT_TRUE(live.contains(tether));
  EXPECT_TRUE(live.contains(cycle.objects[0]));
  EXPECT_TRUE(live.contains(cycle.objects[1]));
}

TEST(AttachChainTest, ChainHopsSitesAndLinks) {
  System system(3);
  const ObjectId head = system.NewObject(0, 1);
  const auto chain = workload::AttachChain(system, head, 0, 4);
  ASSERT_EQ(chain.size(), 4u);
  EXPECT_EQ(system.site(0).heap().GetSlot(head, 0), chain[0]);
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    EXPECT_EQ(system.site(chain[i].site).heap().GetSlot(chain[i], 0),
              chain[i + 1]);
  }
}

TEST(RandomGraphTest, RespectsSpecAndKeepsTablesConsistent) {
  System system(4);
  Rng rng(42);
  workload::RandomGraphSpec spec;
  spec.sites = 4;
  spec.objects_per_site = 25;
  spec.slots_per_object = 3;
  const auto objects = workload::BuildRandomGraph(system, spec, rng);
  EXPECT_EQ(objects.size(), 100u);
  EXPECT_EQ(system.TotalObjects(), 100u);
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << system.CheckReferentialIntegrity();
}

TEST(RandomGraphTest, RemoteFractionZeroMeansNoOutrefs) {
  System system(4);
  Rng rng(7);
  workload::RandomGraphSpec spec;
  spec.sites = 4;
  spec.objects_per_site = 20;
  spec.remote_edge_fraction = 0.0;
  workload::BuildRandomGraph(system, spec, rng);
  for (SiteId s = 0; s < 4; ++s) {
    EXPECT_TRUE(system.site(s).tables().outrefs().empty());
  }
}

TEST(HypertextTest, RootedAndUnrootedGroupsAreSeparate) {
  System system(4);
  Rng rng(9);
  workload::HypertextSpec spec;
  spec.sites = 4;
  spec.documents = 12;
  spec.rooted_fraction = 0.5;
  const auto web = workload::BuildHypertextWeb(system, spec, rng);
  EXPECT_EQ(web.documents.size(), 12u);
  const auto live = system.ComputeLiveSet();
  for (std::size_t d = 0; d < 12; ++d) {
    const bool rooted = d < 6;
    EXPECT_EQ(live.contains(web.documents[d]), rooted) << "document " << d;
  }
  // The unrooted half forms at least one inter-site cycle (its ring spans
  // sites round-robin).
  std::set<SiteId> unrooted_sites;
  for (std::size_t d = 6; d < 12; ++d) {
    unrooted_sites.insert(web.documents[d].site);
  }
  EXPECT_GT(unrooted_sites.size(), 1u);
}

TEST(HypertextTest, UnrootedWebIsEventuallyCollected) {
  CollectorConfig config;
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 8;
  System system(4, config);
  Rng rng(11);
  workload::HypertextSpec spec;
  spec.sites = 4;
  spec.documents = 8;
  spec.sections_per_document = 2;
  spec.rooted_fraction = 0.5;
  const auto web = workload::BuildHypertextWeb(system, spec, rng);
  const std::size_t live_count = system.ComputeLiveSet().size();
  system.RunRounds(40);
  EXPECT_EQ(system.TotalObjects(), live_count);
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << system.CheckCompleteness();
  (void)web;
}

// The paper's motivating web at 8 sites and 1,024 documents, collected by
// System::RunRound alone: safe after every round, complete at the end.
TEST(HypertextTest, EightSiteWebsCollectUnderRunRound) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CollectorConfig config;
    config.suspicion_threshold = 3;
    config.estimated_cycle_length = 16;
    config.back_threshold_increment = 2;
    System system(8, config, NetworkConfig{}, seed);
    workload::HypertextSpec spec;
    spec.sites = 8;
    spec.documents = 1024;
    spec.sections_per_document = 3;
    Rng rng(seed);
    workload::BuildHypertextWeb(system, spec, rng);
    const std::size_t live = system.ComputeLiveSet().size();
    ASSERT_LT(live, system.TotalObjects()) << "the web holds no garbage";

    for (int round = 0; system.TotalObjects() > live && round < 200;
         ++round) {
      system.RunRound();
      ASSERT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
    }
    EXPECT_TRUE(system.CheckCompleteness().empty())
        << system.CheckCompleteness();
    EXPECT_GT(system.TotalObjectsReclaimed(), 0u);
  }
}

TEST(FigureWorldsTest, Figure1TablesMatchPaper) {
  System system(3);
  const auto w = workload::BuildFigure1(system);
  // P's outrefs: b and c. Q's: c, e, g. R's: f.
  EXPECT_NE(system.site(0).tables().FindOutref(w.b), nullptr);
  EXPECT_NE(system.site(0).tables().FindOutref(w.c), nullptr);
  EXPECT_NE(system.site(1).tables().FindOutref(w.c), nullptr);
  EXPECT_NE(system.site(1).tables().FindOutref(w.e), nullptr);
  EXPECT_NE(system.site(1).tables().FindOutref(w.g), nullptr);
  EXPECT_NE(system.site(2).tables().FindOutref(w.f), nullptr);
  // R's inref for c lists sources P and Q (the paper's worked example).
  const InrefEntry* inref_c = system.site(2).tables().FindInref(w.c);
  ASSERT_NE(inref_c, nullptr);
  EXPECT_TRUE(inref_c->sources.contains(0));
  EXPECT_TRUE(inref_c->sources.contains(1));
}

TEST(FigureWorldsTest, Figure5LiveSetMatchesNarrative) {
  System system(4);
  const auto w = workload::BuildFigure5(system, /*with_second_source=*/false);
  const auto live = system.ComputeLiveSet();
  // Everything is reachable from root a along the old path.
  for (const ObjectId id : {w.a, w.b, w.y, w.z, w.x, w.f, w.c, w.e, w.d, w.g}) {
    EXPECT_TRUE(live.contains(id)) << id;
  }
  // Figure 6 variant adds the second source of inref g.
  System system6(4);
  const auto w6 = workload::BuildFigure5(system6, /*with_second_source=*/true);
  const InrefEntry* inref_g = system6.site(0).tables().FindInref(w6.g);
  ASSERT_NE(inref_g, nullptr);
  EXPECT_EQ(inref_g->sources.size(), 2u);
}

}  // namespace
}  // namespace dgc
