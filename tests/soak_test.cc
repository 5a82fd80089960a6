// Kitchen-sink soak: every optional feature enabled at once — piggybacking,
// non-atomic local traces, latency jitter, message loss, timeouts, update
// refresh — under transactional churn with a mid-run crash-restart, and
// every reused local trace checked against a shadow full trace. If the
// features compose badly, this is where it shows.
#include <gtest/gtest.h>

#include "core/system.h"
#include "reuse_check.h"
#include "workload/builders.h"
#include "workload/churn.h"

namespace dgc {
namespace {

class KitchenSink : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KitchenSink, EverythingOnEverywhereStaysSafeAndCompletes) {
  const std::uint64_t seed = GetParam();
  CollectorConfig config;
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 6;
  config.back_threshold_increment = 3;
  config.local_trace_duration = 25;  // §6.2 non-atomic traces
  config.back_call_timeout = 600;    // §4.6 timeouts
  config.report_timeout = 5000;      // §4.6 outcome expiry
  config.update_refresh_period = 3;  // loss recovery
  NetworkConfig net;
  net.latency = 10;
  net.latency_jitter = 12;
  net.drop_probability = 0.02;
  net.batch_window = 6;  // §4.6 piggybacking
  System system(5, config, net, seed);
  CheckEveryReuse(system);

  // Static garbage to find: two rings, one of them large.
  const auto small_ring = workload::BuildCycle(
      system, {.sites = 2, .objects_per_site = 1, .first_site = 0});
  const auto big_ring = workload::BuildCycle(
      system, {.sites = 5, .objects_per_site = 2, .first_site = 0});

  // Plus live churn on top.
  workload::ChurnDriver driver(system, Rng(seed * 48271));
  workload::ChurnSpec spec;
  spec.steps = 30;
  spec.rounds_every = 4;
  spec.check_safety_each_step = true;
  driver.Run(spec);

  // Crash-restart a site mid-flight, with its network down for a while.
  system.network().SetSiteDown(3, true);
  system.RunRounds(4);
  system.network().SetSiteDown(3, false);
  system.site(3).CrashRestart();
  system.SettleNetwork();
  EXPECT_TRUE(system.CheckSafety().empty())
      << "seed " << seed << ": " << system.CheckSafety();

  // More churn after recovery.
  driver.Run(spec);

  // Quiesce fully.
  EXPECT_NO_THROW(driver.Quiesce(120));
  for (const ObjectId id : small_ring.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << "seed " << seed << " " << id;
  }
  for (const ObjectId id : big_ring.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << "seed " << seed << " " << id;
  }
  EXPECT_TRUE(system.CheckSafety().empty())
      << "seed " << seed << ": " << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << "seed " << seed << ": " << system.CheckCompleteness();
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << "seed " << seed << ": " << system.CheckReferentialIntegrity();
  EXPECT_TRUE(system.CheckLocalSafetyInvariant().empty())
      << "seed " << seed << ": " << system.CheckLocalSafetyInvariant();
  // Piggybacking engaged.
  EXPECT_LT(system.network().stats().wire_messages,
            system.network().stats().inter_site_sent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KitchenSink,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace dgc
