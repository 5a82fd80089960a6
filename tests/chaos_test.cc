// Chaos harness: fault plans (site outages, crash-restarts, link flaps, drop
// bursts, latency spikes) injected into running collections, checked against
// the twin oracles — safety (no live object is ever collected, under any
// fault schedule) and liveness (every garbage cycle is collected once the
// faults heal) — plus the reliable-channel equivalence test: with
// retransmission enabled, a lossy run must converge to the same final heap
// as a lossless one.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/system.h"
#include "sim/fault_plan.h"
#include "workload/builders.h"

namespace dgc {
namespace {

/// Schedules `waves` waves of per-site local traces at absolute times
/// `start + w * spacing`, staggering site s by `s * stagger` inside each
/// wave. Scheduled up front so the traces genuinely interleave with a fault
/// plan's events during one SettleNetwork.
void ScheduleTraceWaves(System& system, SimTime start, std::size_t waves,
                        SimTime spacing, SimTime stagger) {
  for (std::size_t w = 0; w < waves; ++w) {
    for (SiteId s = 0; s < system.site_count(); ++s) {
      system.scheduler().At(
          start + static_cast<SimTime>(w) * spacing +
              static_cast<SimTime>(s) * stagger,
          [&system, s] {
            if (!system.site(s).trace_in_flight()) {
              system.site(s).StartLocalTrace();
            }
          });
    }
  }
}

/// True when no back-trace state is stranded anywhere: no active frames, no
/// visit records awaiting a report, no calls still parked on a suspect peer.
bool NoStrandedTraceState(const System& system) {
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const BackTracer& bt = system.site(s).back_tracer();
    if (bt.active_frames() != 0 || bt.visit_record_count() != 0 ||
        bt.parked_call_count() != 0) {
      return false;
    }
  }
  return true;
}

void ExpectNoStrandedTraceState(const System& system, const char* context) {
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const BackTracer& bt = system.site(s).back_tracer();
    EXPECT_EQ(bt.active_frames(), 0u) << context << ": site " << s;
    EXPECT_EQ(bt.visit_record_count(), 0u) << context << ": site " << s;
    EXPECT_EQ(bt.parked_call_count(), 0u) << context << ": site " << s;
  }
  EXPECT_EQ(system.network().in_flight(), 0u) << context;
}

/// Post-chaos recovery: rounds (with periodic clock advances so lazy
/// report-timeout expiry can run) until the world is garbage-free and no
/// trace state is stranded. Safety is checked after every round.
void RecoverUntilClean(System& system, std::size_t max_rounds) {
  const SimTime expiry = system.site(0).config().report_timeout +
                         system.site(0).config().back_call_timeout + 10;
  for (std::size_t i = 0; i < max_rounds; ++i) {
    system.RunRound();
    ASSERT_TRUE(system.CheckSafety().empty())
        << "round " << i << ": " << system.CheckSafety();
    if (system.CheckCompleteness().empty() && NoStrandedTraceState(system)) {
      return;
    }
    if (i % 8 == 7) system.AdvanceTime(expiry);
  }
}

// --- Reliable-channel equivalence (satellite: drop_probability > 0) --------

/// The worlds the equivalence runs are built on: two garbage rings plus a
/// rooted ring that must survive.
struct EquivalenceWorld {
  std::vector<ObjectId> garbage;
  std::vector<ObjectId> live;
};

EquivalenceWorld BuildEquivalenceWorld(System& system) {
  EquivalenceWorld world;
  const auto small_ring = workload::BuildCycle(
      system, {.sites = 2, .objects_per_site = 1, .first_site = 0});
  const auto big_ring = workload::BuildCycle(
      system, {.sites = 4, .objects_per_site = 2, .first_site = 0});
  const auto live_ring = workload::BuildCycle(
      system, {.sites = 3, .objects_per_site = 1, .first_site = 1});
  const ObjectId tether =
      workload::TetherToRoot(system, live_ring.head(), /*root_site=*/0);
  world.garbage = small_ring.objects;
  world.garbage.insert(world.garbage.end(), big_ring.objects.begin(),
                       big_ring.objects.end());
  world.live = live_ring.objects;
  world.live.push_back(tether);
  return world;
}

struct EquivalenceOutcome {
  std::vector<bool> garbage_exists;
  std::vector<bool> live_exists;
  std::uint64_t reclaimed = 0;
  std::uint64_t garbage_verdicts = 0;
};

EquivalenceOutcome RunEquivalenceSchedule(double drop_probability,
                                          std::uint64_t seed) {
  CollectorConfig config;
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 6;
  // Explicit (identical) timeouts in both runs: generous enough that a loss
  // repaired by a few retransmissions never converts into a spurious Live.
  config.back_call_timeout = 600;
  config.report_timeout = 5000;
  config.update_refresh_period = 3;
  NetworkConfig net;
  net.latency = 10;
  net.reliable_delivery = true;
  net.drop_probability = drop_probability;
  System system(4, config, net, seed);
  const EquivalenceWorld world = BuildEquivalenceWorld(system);

  // Fixed schedule, identical in both runs.
  system.RunRounds(14);
  system.AdvanceTime(config.report_timeout + 1);
  system.RunRounds(4);

  EXPECT_TRUE(system.CheckSafety().empty())
      << "drop " << drop_probability << ": " << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << "drop " << drop_probability << ": " << system.CheckCompleteness();
  if (drop_probability > 0.0) {
    // The loss actually happened, and retransmission repaired all of it.
    EXPECT_GT(system.network().stats().transmissions_lost, 0u);
    EXPECT_GT(system.network().stats().retransmits, 0u);
    EXPECT_EQ(system.network().stats().dropped, 0u);
  }
  ExpectNoStrandedTraceState(system, "equivalence");

  EquivalenceOutcome outcome;
  for (const ObjectId id : world.garbage) {
    outcome.garbage_exists.push_back(system.ObjectExists(id));
  }
  for (const ObjectId id : world.live) {
    outcome.live_exists.push_back(system.ObjectExists(id));
  }
  outcome.reclaimed = system.TotalObjectsReclaimed();
  outcome.garbage_verdicts =
      system.AggregateBackTracerStats().traces_completed_garbage;
  return outcome;
}

TEST(ReliableEquivalence, LossyRunConvergesToLosslessOutcome) {
  const EquivalenceOutcome lossless = RunEquivalenceSchedule(0.0, 11);
  const EquivalenceOutcome lossy = RunEquivalenceSchedule(0.10, 11);

  // The lossless run collects all garbage and keeps all live objects; the
  // lossy run must land on exactly the same heap.
  for (const bool exists : lossless.garbage_exists) EXPECT_FALSE(exists);
  for (const bool exists : lossless.live_exists) EXPECT_TRUE(exists);
  EXPECT_EQ(lossy.garbage_exists, lossless.garbage_exists);
  EXPECT_EQ(lossy.live_exists, lossless.live_exists);
  EXPECT_EQ(lossy.reclaimed, lossless.reclaimed);
  EXPECT_EQ(lossy.garbage_verdicts, lossless.garbage_verdicts);
}

// --- Scripted plans --------------------------------------------------------

// A long site outage across the only path a back trace can take: the trace
// must park its remote step on the suspected site instead of burning a
// timeout, then resume and complete Garbage when the failure detector
// reports the heal.
TEST(ScriptedChaos, BackTraceParksAcrossOutageAndResumesOnHeal) {
  CollectorConfig config;
  config.estimated_cycle_length = 16;  // wide suspected-but-not-traced band
  // Far beyond the heal notification: no timeout can preempt the parked
  // step, so the trace's only way forward is the resume path.
  config.back_call_timeout = 200'000;
  config.report_timeout = 500'000;
  config.update_refresh_period = 3;
  NetworkConfig net;
  net.latency = 5;
  net.reliable_delivery = true;
  net.heartbeat_period = 25'000;  // suspicion lingers long after the heal
  net.heartbeat_timeout = 100;    // ... and sets in quickly
  System system(4, config, net, 5);

  const auto ring = workload::BuildCycle(
      system, {.sites = 4, .objects_per_site = 1, .first_site = 0});
  std::vector<ObjectId> live;
  for (SiteId s = 0; s < 4; ++s) {
    const ObjectId obj = system.NewObject(s, 1);
    system.SetPersistentRoot(obj);
    live.push_back(obj);
  }

  FaultPlan plan;
  plan.DropBurst(/*at=*/50, /*duration=*/300, /*drop_probability=*/0.4)
      .LinkFlap(/*at=*/80, /*a=*/0, /*b=*/1, /*duration=*/150)
      .SiteOutage(/*at=*/100, /*site=*/2, /*duration=*/600);
  system.ArmFaultPlan(plan);

  // A few waves inside the chaos window (their messages ride the drop burst
  // and the outage, exercising retransmission), then steady waves after the
  // heal at t=700 — all well inside the lingering-suspicion window of
  // heal + heartbeat_period, where distance growth resumes, the ring's
  // distances cross the back threshold, and the trace that starts must park
  // its step into site 2.
  ScheduleTraceWaves(system, /*start=*/60, /*waves=*/3, /*spacing=*/250,
                     /*stagger=*/20);
  ScheduleTraceWaves(system, /*start=*/750, /*waves=*/25, /*spacing=*/250,
                     /*stagger=*/20);
  system.SettleNetwork();

  const BackTracerStats bt = system.AggregateBackTracerStats();
  EXPECT_GE(bt.calls_parked, 1u) << "no remote step parked on the outage";
  EXPECT_EQ(bt.calls_unparked, bt.calls_parked);
  EXPECT_GE(bt.traces_completed_garbage, 1u);
  EXPECT_EQ(bt.timeouts, 0u);
  const NetworkStats& stats = system.network().stats();
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.transmissions_lost, 0u);
  EXPECT_GE(stats.fd_suspicions, 1u);
  EXPECT_GE(stats.fd_recoveries, 1u);

  // The verdict's flags sweep at the next local traces.
  system.RunRounds(4);
  for (const ObjectId id : ring.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << id;
  }
  for (const ObjectId id : live) {
    EXPECT_TRUE(system.ObjectExists(id)) << id;
  }
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty()) << system.CheckCompleteness();
  ExpectNoStrandedTraceState(system, "parked-resume");
}

// A crash-restart (volatile collector state lost, incarnation bumped) in the
// middle of a drop burst and a link flap: stale pre-crash traffic must be
// rejected, and the collection must still converge after the faults heal.
TEST(ScriptedChaos, CrashRestartMidCollectionRecovers) {
  CollectorConfig config;
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 6;
  config.update_refresh_period = 3;
  NetworkConfig net;
  net.latency = 5;
  net.latency_jitter = 6;
  net.reliable_delivery = true;
  net.heartbeat_period = 20;
  net.heartbeat_timeout = 80;
  System system(4, config, net, 7);

  const auto ring = workload::BuildCycle(
      system, {.sites = 4, .objects_per_site = 2, .first_site = 0});
  const auto live_ring = workload::BuildCycle(
      system, {.sites = 3, .objects_per_site = 1, .first_site = 1});
  const ObjectId tether =
      workload::TetherToRoot(system, live_ring.head(), /*root_site=*/0);

  FaultPlan plan;
  plan.DropBurst(/*at=*/100, /*duration=*/400, /*drop_probability=*/0.5)
      .SiteOutage(/*at=*/200, /*site=*/1, /*duration=*/400,
                  /*crash_restart=*/true)
      .LinkFlap(/*at=*/700, /*a=*/2, /*b=*/3, /*duration=*/200)
      .LatencySpike(/*at=*/900, /*duration=*/300, /*extra_latency=*/40);
  system.ArmFaultPlan(plan);

  ScheduleTraceWaves(system, /*start=*/50, /*waves=*/26, /*spacing=*/150,
                     /*stagger=*/15);
  system.SettleNetwork();
  ASSERT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();

  RecoverUntilClean(system, /*max_rounds=*/60);

  EXPECT_EQ(system.network().incarnation(1), 1u);
  EXPECT_GT(system.network().stats().retransmits, 0u);
  EXPECT_GE(system.network().stats().fd_suspicions, 1u);
  for (const ObjectId id : ring.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << id;
  }
  for (const ObjectId id : live_ring.objects) {
    EXPECT_TRUE(system.ObjectExists(id)) << id;
  }
  EXPECT_TRUE(system.ObjectExists(tether));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty()) << system.CheckCompleteness();
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << system.CheckReferentialIntegrity();
  ExpectNoStrandedTraceState(system, "crash-restart");
}

// A site outage overlapping a link flap on a reliable network: a garbage
// ring spanning both must still be collected once they heal, and the rooted
// ring beside it must survive.
TEST(ScriptedChaos, PartitionOutageHealsAndCollects) {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  config.update_refresh_period = 3;
  NetworkConfig net;
  net.latency = 3;
  net.reliable_delivery = true;
  System system(4, config, net, 9);

  const auto garbage = workload::BuildCycle(
      system, {.sites = 3, .objects_per_site = 1, .first_site = 0});
  const auto live_ring = workload::BuildCycle(
      system, {.sites = 2, .objects_per_site = 1, .first_site = 2});
  const ObjectId tether =
      workload::TetherToRoot(system, live_ring.head(), /*root_site=*/3);

  FaultPlan plan;
  plan.SiteOutage(/*at=*/60, /*site=*/2, /*duration=*/300)
      .LinkFlap(/*at=*/120, /*a=*/0, /*b=*/1, /*duration=*/240);
  system.ArmFaultPlan(plan);

  ScheduleTraceWaves(system, /*start=*/30, /*waves=*/10, /*spacing=*/80,
                     /*stagger=*/7);
  system.SettleNetwork();
  ASSERT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();

  RecoverUntilClean(system, /*max_rounds=*/40);
  for (const ObjectId id : garbage.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << id;
  }
  for (const ObjectId id : live_ring.objects) {
    EXPECT_TRUE(system.ObjectExists(id)) << id;
  }
  EXPECT_TRUE(system.ObjectExists(tether));
  EXPECT_TRUE(system.CheckCompleteness().empty()) << system.CheckCompleteness();
  ExpectNoStrandedTraceState(system, "partition");
}

// --- Random chaos soak -----------------------------------------------------

/// The soak's world on one seed: five sites on a network with jitter,
/// batching, ambient loss, reliable delivery and the failure detector, two
/// garbage rings and a tethered live ring, and a random fault plan (outages,
/// crash-restarts, link flaps, drop bursts, latency spikes) over 3,000
/// ticks, with waves of local traces armed throughout. Settles the plan,
/// then recovers round by round until clean.
struct SoakWorld {
  std::unique_ptr<System> system;
  workload::CycleHandles small_ring;
  workload::CycleHandles big_ring;
  workload::CycleHandles live_ring;
  ObjectId tether;
};

void RunChaosSoak(std::uint64_t seed, SoakWorld& world) {
  CollectorConfig config;
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 6;
  config.back_threshold_increment = 3;
  config.update_refresh_period = 3;
  NetworkConfig net;
  net.latency = 5;
  net.latency_jitter = 8;
  net.batch_window = 4;
  net.drop_probability = 0.01;  // ambient loss on top of the plan's bursts
  net.reliable_delivery = true;
  net.heartbeat_period = 30;
  net.heartbeat_timeout = 120;
  world.system = std::make_unique<System>(5, config, net, seed);
  System& system = *world.system;

  world.small_ring = workload::BuildCycle(
      system, {.sites = 2, .objects_per_site = 1, .first_site = 0});
  world.big_ring = workload::BuildCycle(
      system, {.sites = 5, .objects_per_site = 2, .first_site = 0});
  world.live_ring = workload::BuildCycle(
      system, {.sites = 4, .objects_per_site = 1, .first_site = 1});
  world.tether =
      workload::TetherToRoot(system, world.live_ring.head(), /*root_site=*/0);

  Rng chaos_rng(seed * 7919 + 1);
  FaultPlan::RandomSpec spec;
  spec.sites = 5;
  spec.horizon = 3000;
  const FaultPlan plan = FaultPlan::Random(chaos_rng, spec);
  ASSERT_FALSE(plan.empty());
  system.ArmFaultPlan(plan);

  // Collection attempts throughout the plan's horizon and beyond, armed up
  // front so faults land in the middle of live protocol traffic.
  ScheduleTraceWaves(system, /*start=*/100, /*waves=*/31, /*spacing=*/150,
                     /*stagger=*/9);
  system.SettleNetwork();
  ASSERT_TRUE(system.CheckSafety().empty())
      << "seed " << seed << ": " << system.CheckSafety();

  RecoverUntilClean(system, /*max_rounds=*/80);
}

class ChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSoak, SafetyAlwaysLivenessOnceHealed) {
  const std::uint64_t seed = GetParam();
  SoakWorld world;
  ASSERT_NO_FATAL_FAILURE(RunChaosSoak(seed, world));
  const System& system = *world.system;

  for (const ObjectId id : world.small_ring.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << "seed " << seed << " " << id;
  }
  for (const ObjectId id : world.big_ring.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << "seed " << seed << " " << id;
  }
  for (const ObjectId id : world.live_ring.objects) {
    EXPECT_TRUE(system.ObjectExists(id)) << "seed " << seed << " " << id;
  }
  EXPECT_TRUE(system.ObjectExists(world.tether)) << "seed " << seed;
  EXPECT_TRUE(system.CheckSafety().empty())
      << "seed " << seed << ": " << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << "seed " << seed << ": " << system.CheckCompleteness();
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << "seed " << seed << ": " << system.CheckReferentialIntegrity();
  ExpectNoStrandedTraceState(system, "soak");
  EXPECT_GT(system.network().stats().retransmits, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSoak,
                         ::testing::Range<std::uint64_t>(1, 13));

/// Every network counter (and each payload kind's nonzero count), the
/// scheduler's event count and final clock, and the objects reclaimed.
std::string EventOrderSummary(const System& system) {
  std::ostringstream out;
  const NetworkStats& stats = system.network().stats();
  ForEachCounter(stats, [&](const std::string& name, std::uint64_t value) {
    out << name << '=' << value << ' ';
  });
  for (std::size_t kind = 0; kind < kPayloadKinds; ++kind) {
    if (stats.per_kind[kind] != 0) {
      out << PayloadKindName(kind) << '=' << stats.per_kind[kind] << ' ';
    }
  }
  out << "events=" << system.scheduler().events_executed()
      << " now=" << system.now()
      << " reclaimed=" << system.TotalObjectsReclaimed();
  return out.str();
}

// Event-order goldens: the e2e workloads run only the default network, so
// these pin the order of the jitter, batching, reliable-delivery, failure
// detector and restart paths. A change that reorders, adds or drops one
// event or RNG draw moves a counter here. Only a change meant to alter the
// event order may re-pin them, and must say so.
TEST(ChaosSoakGolden, EveryCounterAndTheEventCountArePinned) {
  const std::pair<std::uint64_t, const char*> goldens[] = {
      {1, "inter_site_sent=198 inter_site_delivered=190 dropped=10 "
          "self_deliveries=54 logical_bytes=8430 wire_messages=488 "
          "wire_bytes=13234 retransmits=84 retransmits_exhausted=0 "
          "transmissions_lost=79 dup_suppressed=19 acks_sent=208 "
          "stale_incarnation_rejected=0 fd_suspicions=4 "
          "fd_recoveries=4 Insert=3 Update=152 BackLocalCall=19 "
          "BackReply=19 BackReport=5 events=1106 now=11887 "
          "reclaimed=12"},
      {7, "inter_site_sent=119 inter_site_delivered=110 dropped=9 "
          "self_deliveries=20 logical_bytes=4738 wire_messages=313 "
          "wire_bytes=7997 retransmits=73 retransmits_exhausted=0 "
          "transmissions_lost=87 dup_suppressed=15 acks_sent=123 "
          "stale_incarnation_rejected=0 fd_suspicions=3 "
          "fd_recoveries=3 Insert=5 Update=95 BackLocalCall=7 "
          "BackReply=7 BackReport=5 events=707 now=4636 reclaimed=12"},
  };
  for (const auto& [seed, golden] : goldens) {
    SoakWorld world;
    ASSERT_NO_FATAL_FAILURE(RunChaosSoak(seed, world));
    EXPECT_EQ(EventOrderSummary(*world.system), golden) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dgc
