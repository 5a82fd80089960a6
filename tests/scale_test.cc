// Scale engine tests: topology-plan determinism, the power-law shape of the
// generated reference graph, reservoir percentiles, a down-scaled
// (4-site / 10^4-object) open-loop engine smoke run under the twin oracles,
// and seeded 4-site open-loop runs (ten seeds at round stagger 3, one with
// same-instant rounds) with every reused trace shadow-checked.
// The full 100-site / 10^6-object configuration runs in bench_scale; this
// suite keeps the same machinery honest at ctest cost (label: scale).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/latency_reservoir.h"
#include "reuse_check.h"
#include "workload/scale.h"

namespace dgc {
namespace {

// --- Topology plan ----------------------------------------------------------

workload::ScaleTopologySpec SmallSpec(std::uint64_t seed) {
  workload::ScaleTopologySpec spec;
  spec.sites = 6;
  spec.objects_per_site = 400;
  spec.seed = seed;
  return spec;
}

TEST(ScaleTopologyTest, PlanIsDeterministicAcrossTenSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto a = workload::BuildScaleTopology(SmallSpec(seed));
    const auto b = workload::BuildScaleTopology(SmallSpec(seed));
    ASSERT_EQ(a.edges, b.edges) << "seed " << seed;
    ASSERT_EQ(a.roots, b.roots) << "seed " << seed;
    ASSERT_FALSE(a.edges.empty()) << "seed " << seed;
  }
}

TEST(ScaleTopologyTest, DifferentSeedsYieldDifferentPlans) {
  const auto a = workload::BuildScaleTopology(SmallSpec(1));
  const auto b = workload::BuildScaleTopology(SmallSpec(2));
  EXPECT_NE(a.edges, b.edges);
}

TEST(ScaleTopologyTest, PlanRespectsSpecBounds) {
  const auto spec = SmallSpec(3);
  const auto plan = workload::BuildScaleTopology(spec);
  for (const auto& e : plan.edges) {
    ASSERT_LT(e.from_site, spec.sites);
    ASSERT_LT(e.to_site, spec.sites);
    ASSERT_LT(e.from_ordinal, spec.objects_per_site);
    ASSERT_LT(e.to_ordinal, spec.objects_per_site);
    ASSERT_LT(e.slot, spec.slots_per_object);
    // Self-edges are skipped at plan time: an object never wires to itself.
    ASSERT_FALSE(e.from_site == e.to_site && e.from_ordinal == e.to_ordinal);
  }
  const auto rooted = static_cast<std::size_t>(
      spec.rooted_fraction * static_cast<double>(spec.objects_per_site));
  EXPECT_EQ(plan.roots.size(), spec.sites * rooted);
  // Wiring probability: edge count tracks wire_probability of all slots.
  const double slots = static_cast<double>(
      spec.sites * spec.objects_per_site * spec.slots_per_object);
  const double wired = static_cast<double>(plan.edges.size()) / slots;
  EXPECT_NEAR(wired, spec.wire_probability, 0.02);
}

// Rank-biased target sampling concentrates references on low ordinals: the
// top decile of ranks draws a 0.1^(1/hub_bias) share of all references.
TEST(ScaleTopologyTest, HubBiasShapesTheInDegreeDistribution) {
  for (const double bias : {1.0, 2.0, 4.0}) {
    workload::ScaleTopologySpec spec;
    spec.sites = 4;
    spec.objects_per_site = 5'000;
    spec.hub_bias = bias;
    spec.seed = 11;
    const auto plan = workload::BuildScaleTopology(spec);
    ASSERT_GT(plan.edges.size(), 50'000u);
    const std::uint32_t decile =
        static_cast<std::uint32_t>(spec.objects_per_site / 10);
    std::size_t top = 0;
    for (const auto& e : plan.edges) {
      if (e.to_ordinal < decile) ++top;
    }
    const double share =
        static_cast<double>(top) / static_cast<double>(plan.edges.size());
    const double expected = std::pow(0.1, 1.0 / bias);
    EXPECT_NEAR(share, expected, 0.03) << "hub_bias " << bias;
  }
}

TEST(ScaleTopologyTest, InstantiationMatchesThePlan) {
  const auto spec = SmallSpec(5);
  const auto plan = workload::BuildScaleTopology(spec);
  System system(spec.sites, CollectorConfig{});
  const auto ids = workload::InstantiateScaleTopology(system, plan);
  ASSERT_EQ(ids.size(), spec.sites);
  for (const auto& site_ids : ids) {
    ASSERT_EQ(site_ids.size(), spec.objects_per_site);
    for (const ObjectId id : site_ids) ASSERT_TRUE(system.ObjectExists(id));
  }
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << system.CheckReferentialIntegrity();
}

// Every ref-table entry (inref sources included) and every heap slot.
std::string DumpWorld(System& system,
                      const std::vector<std::vector<ObjectId>>& ids) {
  std::ostringstream os;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const Site& site = system.site(s);
    os << "site " << s << "\noutrefs";
    for (const auto& [ref, e] : site.tables().outrefs()) {
      os << ' ' << ref << ':' << e.distance << ',' << e.traced_clean << ','
         << e.clean_override << ',' << e.pin_count << ',' << e.last_reported
         << ',' << e.back_threshold;
    }
    os << "\ninrefs";
    for (const auto& [obj, e] : site.tables().inrefs()) {
      os << ' ' << obj << ':' << e.garbage_flagged << ',' << e.clean_override
         << ',' << e.back_threshold << '[';
      for (const auto& [source, distance] : e.sources) {
        os << source << '=' << distance << ' ';
      }
      os << ']';
    }
    os << "\nslots";
    for (const ObjectId id : ids[s]) {
      for (std::size_t slot = 0; slot < site.heap().Slots(id).size();
           ++slot) {
        os << ' ' << site.heap().GetSlot(id, slot);
      }
    }
    os << '\n';
  }
  return os.str();
}

TEST(ScaleTopologyTest, WiringOrderDoesNotChangeTheWorld) {
  // The plan is emitted in target order so that wiring appends to the ref
  // tables; any other order must build the same world.
  const auto spec = SmallSpec(5);
  const auto plan = workload::BuildScaleTopology(spec);
  auto shuffled = plan;
  Rng rng(11);
  for (std::size_t i = shuffled.edges.size(); i > 1; --i) {
    std::swap(shuffled.edges[i - 1], shuffled.edges[rng.NextBelow(i)]);
  }
  ASSERT_NE(shuffled.edges, plan.edges);
  System in_order(spec.sites, CollectorConfig{});
  System reordered(spec.sites, CollectorConfig{});
  const auto ids = workload::InstantiateScaleTopology(in_order, plan);
  ASSERT_EQ(workload::InstantiateScaleTopology(reordered, shuffled), ids);
  EXPECT_EQ(DumpWorld(in_order, ids), DumpWorld(reordered, ids));
}

// --- Latency reservoir ------------------------------------------------------

TEST(LatencyReservoirTest, ExactQuantilesBelowCapacity) {
  LatencyReservoir res(128, 1);
  for (SimTime v = 1; v <= 100; ++v) res.Record(v);
  EXPECT_EQ(res.count(), 100u);
  EXPECT_EQ(res.size(), 100u);
  EXPECT_EQ(res.Quantile(0.0), 1);
  // Nearest-rank with rounding: q * (n-1) + 0.5 -> index 50 -> value 51.
  EXPECT_EQ(res.Quantile(0.5), 51);
  EXPECT_EQ(res.Quantile(0.99), 99);
  EXPECT_EQ(res.Quantile(1.0), 100);
}

TEST(LatencyReservoirTest, BoundedMemoryUnderLongStreams) {
  LatencyReservoir res(64, 2);
  for (SimTime v = 0; v < 100'000; ++v) res.Record(1'000);
  EXPECT_EQ(res.count(), 100'000u);
  EXPECT_EQ(res.size(), 64u) << "reservoir must not grow past capacity";
  // Every sample in the stream is identical, so any subsample agrees.
  EXPECT_EQ(res.Quantile(0.5), 1'000);
  EXPECT_EQ(res.Quantile(0.99), 1'000);
}

TEST(LatencyReservoirTest, EmptyReservoirReportsZero) {
  LatencyReservoir res(16, 3);
  EXPECT_TRUE(res.empty());
  EXPECT_EQ(res.Quantile(0.5), 0);
}

// --- Down-scaled open-loop engine smoke (4 sites, 10^4 objects) -------------

TEST(ScaleEngineTest, OpenLoopSmokeUnderTwinOracles) {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  config.back_threshold_increment = 2;
  System system(4, config);

  workload::ScaleTopologySpec topo;
  topo.sites = 4;
  topo.objects_per_site = 2'500;  // 10^4 objects total
  topo.seed = 42;
  const auto plan = workload::BuildScaleTopology(topo);
  workload::InstantiateScaleTopology(system, plan);

  workload::ScaleDriverSpec drive;
  drive.duration = 8'000;
  drive.mean_interarrival = 20;
  drive.mean_lifetime = 300;
  drive.round_period = 400;
  drive.seed = 7;
  workload::ScaleDriver driver(system, drive);
  driver.Run();

  EXPECT_GT(driver.stats().cohorts_spawned, 100u);
  EXPECT_GT(driver.stats().cohorts_severed, 50u);
  EXPECT_GT(driver.stats().rounds_started, 10u);
  EXPECT_EQ(driver.stats().drove_for, drive.duration);

  // Mid-flight oracles: settle in-flight messages, then no live object may
  // have been reclaimed and every ref-table row must be consistent.
  system.SettleNetwork();
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << system.CheckReferentialIntegrity();
  EXPECT_TRUE(system.CheckLocalSafetyInvariant().empty())
      << system.CheckLocalSafetyInvariant();

  // Closed-loop epilogue: every severed ring must eventually be reclaimed
  // (completeness), with time-to-collect samples harvested along the way.
  ASSERT_TRUE(driver.Quiesce()) << "backlog " << driver.backlog();
  EXPECT_EQ(driver.backlog(), 0u);
  EXPECT_EQ(driver.stats().cohorts_collected, driver.stats().cohorts_severed);
  EXPECT_GT(driver.time_to_collect().count(), 0u);
  EXPECT_GE(driver.time_to_collect().Quantile(0.99),
            driver.time_to_collect().Quantile(0.5));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << system.CheckCompleteness();
}

// A seeded 4-site open-loop run with every reused local trace checked
// against a shadow full trace. It must sever rings, drain its backlog, and —
// run on to full completeness — leave exactly the live set standing.
void RunOpenLoopUnderReuseChecks(std::uint64_t seed, SimTime round_stagger) {
  SCOPED_TRACE("seed " + std::to_string(seed) + ", stagger " +
               std::to_string(round_stagger));
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  config.back_threshold_increment = 2;
  System system(4, config, NetworkConfig{}, seed);
  CheckEveryReuse(system);

  workload::ScaleTopologySpec topo;
  topo.sites = 4;
  topo.objects_per_site = 500;
  topo.seed = seed;
  workload::InstantiateScaleTopology(system,
                                     workload::BuildScaleTopology(topo));

  workload::ScaleDriverSpec drive;
  drive.duration = 4'000;
  drive.mean_interarrival = 25;
  drive.mean_lifetime = 300;
  drive.round_period = 400;
  drive.round_stagger = round_stagger;
  drive.seed = seed + 100;
  workload::ScaleDriver driver(system, drive);
  driver.Run();
  ASSERT_GT(driver.stats().cohorts_severed, 0u);
  ASSERT_TRUE(driver.Quiesce()) << "backlog " << driver.backlog();

  // Quiesce stops once the driver's own cohorts are reclaimed; unrooted
  // topology objects may still be draining.
  for (int i = 0; i < 40 && !system.CheckCompleteness().empty(); ++i) {
    system.RunRound();
  }
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << system.CheckCompleteness();
}

TEST(ScaleEngineTest, OpenLoopRunsCollectEverySeedUnderReuseChecks) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    RunOpenLoopUnderReuseChecks(seed, /*round_stagger=*/3);
  }
}

// Same-instant rounds (stagger 0) start every site's local trace at the same
// simulated instant.
TEST(ScaleEngineTest, SameInstantRoundsCollectUnderReuseChecks) {
  RunOpenLoopUnderReuseChecks(21, /*round_stagger=*/0);
}

// The open-loop engine is deterministic end to end: identical specs and
// seeds produce identical stats and identical latency samples.
TEST(ScaleEngineTest, OpenLoopRunsAreReproducible) {
  auto run = [] {
    CollectorConfig config;
    config.suspicion_threshold = 2;
    System system(4, config);
    workload::ScaleTopologySpec topo;
    topo.sites = 4;
    topo.objects_per_site = 500;
    topo.seed = 9;
    workload::InstantiateScaleTopology(system,
                                       workload::BuildScaleTopology(topo));
    workload::ScaleDriverSpec drive;
    drive.duration = 4'000;
    drive.mean_interarrival = 25;
    drive.seed = 13;
    workload::ScaleDriver driver(system, drive);
    driver.Run();
    driver.Quiesce();
    return std::tuple{driver.stats().mutations,
                      driver.stats().cohorts_collected,
                      driver.time_to_collect().Quantile(0.5),
                      driver.time_to_collect().Quantile(0.99)};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dgc
