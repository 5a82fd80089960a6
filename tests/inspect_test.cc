// Tests for the introspection views: the rendered text must reflect the
// actual collector state (spot-checked via substrings) and the DOT export
// must be well-formed.
#include <gtest/gtest.h>

#include "core/inspect.h"
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

TEST(InspectTest, DescribeSiteShowsTablesAndStates) {
  System system(2, Config());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  system.RunRounds(6);  // ripen into suspicion

  const std::string text = DescribeSite(system.site(0));
  EXPECT_NE(text.find("site 0"), std::string::npos);
  EXPECT_NE(text.find("inrefs (1)"), std::string::npos);
  EXPECT_NE(text.find("outrefs (1)"), std::string::npos);
  EXPECT_NE(text.find("SUSPECTED"), std::string::npos);
  EXPECT_NE(text.find("inset={"), std::string::npos);
  EXPECT_NE(text.find("back tracer:"), std::string::npos);
  (void)cycle;
}

TEST(InspectTest, DescribeSiteShowsFlaggedAndBarrierState) {
  System system(2, Config());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  system.RunRounds(6);
  system.site(0).tables().FindInref(cycle.objects[0])->garbage_flagged = true;
  system.site(1).ApplyTransferBarrier(cycle.objects[1]);
  EXPECT_NE(DescribeSite(system.site(0)).find("FLAGGED"), std::string::npos);
  EXPECT_NE(DescribeSite(system.site(1)).find("barrier-cleaned"),
            std::string::npos);
}

TEST(InspectTest, DescribeSystemSummarizes) {
  System system(3, Config());
  workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  system.RunRounds(4);
  const std::string text = DescribeSystem(system);
  EXPECT_NE(text.find("system: 3 sites"), std::string::npos);
  EXPECT_NE(text.find("site 0:"), std::string::npos);
  EXPECT_NE(text.find("site 2:"), std::string::npos);
  EXPECT_NE(text.find("network:"), std::string::npos);
  EXPECT_NE(text.find("back traces:"), std::string::npos);
}

TEST(InspectTest, DescribeSystemMarksDownSites) {
  System system(2, Config());
  system.network().SetSiteDown(1, true);
  EXPECT_NE(DescribeSystem(system).find("[DOWN]"), std::string::npos);
}

TEST(InspectTest, DotExportIsWellFormed) {
  System system(2, Config());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  const ObjectId tether = workload::TetherToRoot(system, cycle.head(), 0);
  system.RunRounds(5);
  const std::string dot = ToDot(system);
  EXPECT_EQ(dot.find("digraph dgc {"), 0u);
  EXPECT_NE(dot.find("subgraph cluster_site0"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_site1"), std::string::npos);
  EXPECT_NE(dot.find("doublecircle"), std::string::npos);  // the root tether
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.rfind("}\n"), dot.size() - 2);
  // Balanced braces.
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));
  (void)tether;
}

TEST(InspectTest, DotMarksSuspectedInterSiteEdges) {
  System system(2, Config());
  workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  system.RunRounds(6);  // suspected now
  const std::string dot = ToDot(system);
  EXPECT_NE(dot.find("style=dashed,color=red"), std::string::npos);
}

}  // namespace
}  // namespace dgc
