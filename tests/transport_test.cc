// Transport-backend tests (label: transport): the sim/threaded differential
// — seeded open-loop runs and hypertext webs must produce the same garbage
// verdicts and reclaim sets under both backends — plus chaos (crash-restart,
// partition outage) scenarios on the threaded backend under the twin
// oracles, thread-count reproducibility, engine counters, clock-sync
// semantics, the worker pool the engine steps sites on, and a data-race
// smoke hammering the MPSC inbox queue and two sites ping-ponging back calls
// with an eight-thread pool (the TSan targets).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "common/worker_pool.h"
#include "core/system.h"
#include "net/mpsc_queue.h"
#include "net/threaded_transport.h"
#include "reuse_check.h"
#include "sim/fault_plan.h"
#include "workload/builders.h"
#include "workload/scale.h"

namespace dgc {
namespace {

NetworkConfig ThreadedNet(std::size_t threads = 4) {
  NetworkConfig net;
  net.transport = TransportKind::kThreaded;
  net.transport_threads = threads;
  return net;
}

/// Every object currently stored anywhere, sorted — the run's survivor set.
std::vector<ObjectId> SurvivingObjects(const System& system) {
  std::vector<ObjectId> out;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    system.site(s).heap().ForEach(
        [&](ObjectId id, const Object&) { out.push_back(id); });
  }
  std::sort(out.begin(), out.end());
  return out;
}

// --- Sim/threaded differential ---------------------------------------------

struct OpenLoopOutcome {
  std::uint64_t spawned = 0;
  std::uint64_t severed = 0;
  std::uint64_t collected = 0;
  std::uint64_t reclaimed = 0;
  bool complete = false;
  std::vector<ObjectId> survivors;

  friend bool operator==(const OpenLoopOutcome&,
                         const OpenLoopOutcome&) = default;
};

/// The down-scaled 4-site open-loop scale smoke, run to full completeness so
/// the survivor set equals the truly-live set — which both backends must
/// agree on exactly (the driver's decision stream is open-loop and
/// collector-independent, so spawn/sever sets are identical by construction;
/// completeness then pins the reclaim set too).
OpenLoopOutcome RunOpenLoop(TransportKind kind, std::uint64_t seed,
                            SimTime round_stagger) {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  config.back_threshold_increment = 2;
  NetworkConfig net;
  net.transport = kind;
  net.transport_threads = 4;
  System system(4, config, net, seed);
  // Under the threaded backend the shadow full traces run on site threads.
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

  OpenLoopOutcome out;
  out.complete = driver.Quiesce();
  // Quiesce stops once the driver's own cohorts are reclaimed; unrooted
  // topology objects may still be draining at a backend-dependent round
  // count. Run on to full completeness so the final state is canonical.
  for (int i = 0; i < 40 && !system.CheckCompleteness().empty(); ++i) {
    system.RunRound();
  }
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << system.CheckCompleteness();
  out.spawned = driver.stats().cohorts_spawned;
  out.severed = driver.stats().cohorts_severed;
  out.collected = driver.stats().cohorts_collected;
  out.reclaimed = system.TotalObjectsReclaimed();
  out.survivors = SurvivingObjects(system);
  return out;
}

TEST(TransportDifferential, ThreadedMatchesSimAcrossTenSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const OpenLoopOutcome sim =
        RunOpenLoop(TransportKind::kSim, seed, /*round_stagger=*/3);
    const OpenLoopOutcome threaded =
        RunOpenLoop(TransportKind::kThreaded, seed, /*round_stagger=*/3);
    ASSERT_GT(sim.severed, 0u) << "seed " << seed;
    ASSERT_TRUE(sim.complete) << "seed " << seed;
    ASSERT_TRUE(threaded.complete) << "seed " << seed;
    ASSERT_EQ(sim, threaded) << "seed " << seed;
  }
}

// Same-instant rounds (stagger 0) put every site's trace into one parallel
// phase — the configuration the threaded backend's speedup comes from.
TEST(TransportDifferential, SameInstantRoundsMatchToo) {
  const OpenLoopOutcome sim =
      RunOpenLoop(TransportKind::kSim, 21, /*round_stagger=*/0);
  const OpenLoopOutcome threaded =
      RunOpenLoop(TransportKind::kThreaded, 21, /*round_stagger=*/0);
  ASSERT_GT(sim.severed, 0u);
  EXPECT_EQ(sim, threaded);
}

// Thread interleavings must not leak into results: staged sends replay in
// site order and all RNG draws happen on the coordinator, so any pool size
// produces the identical outcome.
TEST(TransportDifferential, ThreadedIsReproducibleAcrossThreadCounts) {
  auto run = [](std::size_t threads) {
    CollectorConfig config;
    config.suspicion_threshold = 2;
    NetworkConfig net = ThreadedNet(threads);
    System system(4, config, net, 5);
    workload::ScaleTopologySpec topo;
    topo.sites = 4;
    topo.objects_per_site = 300;
    topo.seed = 5;
    workload::InstantiateScaleTopology(system,
                                       workload::BuildScaleTopology(topo));
    workload::ScaleDriverSpec drive;
    drive.duration = 2'000;
    drive.seed = 13;
    workload::ScaleDriver driver(system, drive);
    driver.Run();
    driver.Quiesce();
    return std::tuple{driver.stats().mutations,
                      driver.stats().cohorts_collected,
                      system.TotalObjectsReclaimed(),
                      SurvivingObjects(system)};
  };
  const auto one = run(1);
  EXPECT_EQ(one, run(2));
  EXPECT_EQ(one, run(8));
}

struct WebOutcome {
  std::size_t rounds_to_clean = 0;
  std::uint64_t reclaimed = 0;
  std::vector<ObjectId> survivors;

  friend bool operator==(const WebOutcome&, const WebOutcome&) = default;
};

/// The paper's motivating web, collected by System::RunRound alone: each
/// site's trace runs inline on the calling thread and the engine only
/// settles the messages it sends.
WebOutcome CollectWeb(TransportKind kind, std::uint64_t seed) {
  CollectorConfig config;
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 16;
  config.back_threshold_increment = 2;
  NetworkConfig net;
  net.transport = kind;
  net.transport_threads = 4;
  System system(8, config, net, seed);
  workload::HypertextSpec spec;
  spec.sites = 8;
  spec.documents = 1024;
  spec.sections_per_document = 3;
  Rng rng(seed);
  workload::BuildHypertextWeb(system, spec, rng);
  const std::size_t live = system.ComputeLiveSet().size();
  EXPECT_LT(live, system.TotalObjects()) << "the web holds no garbage";

  WebOutcome out;
  while (system.TotalObjects() > live && out.rounds_to_clean < 200) {
    system.RunRound();
    ++out.rounds_to_clean;
    EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  }
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << system.CheckCompleteness();
  out.reclaimed = system.TotalObjectsReclaimed();
  out.survivors = SurvivingObjects(system);
  return out;
}

// Message counts may differ between the backends on some webs, so only the
// outcome is compared.
TEST(TransportDifferential, HypertextWebsCollectEquallyUnderRunRound) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const WebOutcome sim = CollectWeb(TransportKind::kSim, seed);
    const WebOutcome threaded = CollectWeb(TransportKind::kThreaded, seed);
    ASSERT_GT(sim.reclaimed, 0u);
    EXPECT_EQ(sim, threaded);
  }
}

// --- The worker pool the engine steps sites on ------------------------------

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.RunBatch(hits.size(), [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ZeroThreadPoolRunsInline) {
  // One transport thread builds a 0-thread pool: the caller drains every
  // batch itself and no thread is ever spawned.
  WorkerPool pool(0);
  EXPECT_EQ(pool.worker_threads(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  int sum = 0;
  std::set<std::thread::id> runners;
  pool.RunBatch(10, [&](std::size_t i) {
    sum += static_cast<int>(i);
    runners.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(sum, 45);
  EXPECT_EQ(runners, std::set<std::thread::id>{caller});
}

TEST(WorkerPoolTest, PropagatesTheFirstException) {
  WorkerPool pool(2);
  EXPECT_THROW(pool.RunBatch(8,
                             [](std::size_t i) {
                               if (i == 3) {
                                 throw std::runtime_error("task failed");
                               }
                             }),
               std::runtime_error);
  // The pool survives a failed batch and keeps serving.
  std::atomic<int> ran{0};
  pool.RunBatch(4, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 4);
}

// A task that blocks on an inner batch on the SAME pool: caller
// participation guarantees progress even when every pool thread is parked
// in an outer task.
TEST(WorkerPoolTest, NestedBatchesDoNotDeadlock) {
  WorkerPool pool(2);
  std::atomic<int> inner_runs{0};
  pool.RunBatch(4, [&](std::size_t) {
    pool.RunBatch(4, [&](std::size_t) {
      inner_runs.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_runs.load(), 16);
}

// The same guarantee under full contention: fewer workers than outer tasks,
// and every outer task forks a batch wider than the pool.
TEST(WorkerPoolTest, NestedRunBatchFromEveryPoolTaskCompletes) {
  WorkerPool pool(3);
  std::atomic<int> executed{0};
  pool.RunBatch(8, [&](std::size_t) {
    pool.RunBatch(16, [&](std::size_t) { executed.fetch_add(1); });
  });
  EXPECT_EQ(executed.load(), 8 * 16);
}

// --- Chaos on the threaded backend -----------------------------------------

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

/// Post-chaos recovery: rounds (with periodic clock advances so lazy
/// report-timeout expiry can run) until garbage-free with no stranded trace
/// state; safety is asserted after every round.
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

/// Trace waves on each site's own scheduler, so under the threaded backend
/// they run on the site threads and genuinely interleave with the armed
/// fault plan's control-side events.
void ScheduleTraceWaves(System& system, SimTime start, std::size_t waves,
                        SimTime spacing, SimTime stagger) {
  for (std::size_t w = 0; w < waves; ++w) {
    for (SiteId s = 0; s < system.site_count(); ++s) {
      system.SchedulerFor(s).At(
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

TEST(ThreadedChaos, CrashRestartMidCollectionRecovers) {
  CollectorConfig config;
  config.suspicion_threshold = 3;
  config.estimated_cycle_length = 6;
  config.update_refresh_period = 3;
  NetworkConfig net = ThreadedNet(4);
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
  for (const ObjectId id : ring.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << id;
  }
  for (const ObjectId id : live_ring.objects) {
    EXPECT_TRUE(system.ObjectExists(id)) << id;
  }
  EXPECT_TRUE(system.ObjectExists(tether));
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << system.CheckCompleteness();
  EXPECT_TRUE(system.CheckReferentialIntegrity().empty())
      << system.CheckReferentialIntegrity();
}

TEST(ThreadedChaos, PartitionOutageHealsAndCollects) {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  config.update_refresh_period = 3;
  NetworkConfig net = ThreadedNet(4);
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
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << system.CheckCompleteness();
}

// --- Engine semantics -------------------------------------------------------

TEST(TransportTest, SimIsTheDefaultAndItsCountersStayZero) {
  System system(3);
  EXPECT_EQ(system.transport().kind(), TransportKind::kSim);
  const auto ring = workload::BuildCycle(
      system, {.sites = 3, .objects_per_site = 1, .first_site = 0});
  system.RunRounds(3);
  const TransportCounters counters = system.transport().counters();
  EXPECT_EQ(counters.timesteps, 0u);
  EXPECT_EQ(counters.handoffs, 0u);
  EXPECT_EQ(counters.staged_sends, 0u);
  EXPECT_EQ(system.transport().site_counters(0).handoffs, 0u);
}

TEST(TransportTest, ThreadedClockStaysInSyncAcrossSchedulers) {
  System system(3, CollectorConfig{}, ThreadedNet(2), 3);
  EXPECT_EQ(system.transport().kind(), TransportKind::kThreaded);
  system.AdvanceTime(137);
  EXPECT_EQ(system.now(), 137);
  EXPECT_EQ(system.scheduler().now(), 137);
  for (SiteId s = 0; s < system.site_count(); ++s) {
    EXPECT_EQ(system.SchedulerFor(s).now(), 137) << "site " << s;
  }
  system.SettleNetwork();
  for (SiteId s = 0; s < system.site_count(); ++s) {
    EXPECT_EQ(system.SchedulerFor(s).now(), system.now()) << "site " << s;
  }
}

// The data-race smoke of the TSan suite: two sites ping-pong back-trace
// calls through the engine with an eight-thread pool while garbage rings
// collect; every counter surface is read afterwards.
TEST(ThreadedTransportTest, TwoSitePingPongBackCallsAtEightThreads) {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 4;
  config.back_threshold_increment = 2;
  System system(2, config, ThreadedNet(8), 11);

  std::vector<ObjectId> garbage;
  for (int i = 0; i < 6; ++i) {
    const auto ring = workload::BuildCycle(
        system, {.sites = 2, .objects_per_site = 2, .first_site = 0});
    garbage.insert(garbage.end(), ring.objects.begin(), ring.objects.end());
  }
  const auto live_ring = workload::BuildCycle(
      system, {.sites = 2, .objects_per_site = 1, .first_site = 0});
  const ObjectId tether =
      workload::TetherToRoot(system, live_ring.head(), /*root_site=*/1);

  // Same-instant rounds: both sites trace in one parallel phase, and every
  // back-trace step ping-pongs through the inboxes.
  for (int round = 0; round < 16; ++round) {
    system.RunRoundStaggered(/*stagger=*/0);
    ASSERT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
    if (system.CheckCompleteness().empty()) break;
  }
  for (const ObjectId id : garbage) {
    EXPECT_FALSE(system.ObjectExists(id)) << id;
  }
  for (const ObjectId id : live_ring.objects) {
    EXPECT_TRUE(system.ObjectExists(id)) << id;
  }
  EXPECT_TRUE(system.ObjectExists(tether));
  EXPECT_TRUE(system.CheckCompleteness().empty())
      << system.CheckCompleteness();

  const TransportCounters counters = system.transport().counters();
  EXPECT_GT(counters.timesteps, 0u);
  EXPECT_GT(counters.parallel_phases, 0u);
  EXPECT_GT(counters.site_steps, 0u);
  EXPECT_GT(counters.handoffs, 0u);
  EXPECT_GT(counters.staged_sends, 0u);
  EXPECT_GE(counters.inbox_peak_depth, 1u);
  // The per-site slices sum to (or bound) the engine totals.
  std::uint64_t handoffs = 0;
  std::uint64_t staged = 0;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const SiteTransportCounters site = system.transport().site_counters(s);
    handoffs += site.handoffs;
    staged += site.staged_sends;
  }
  EXPECT_EQ(handoffs, counters.handoffs);
  EXPECT_EQ(staged, counters.staged_sends);
}

// --- MPSC inbox queue -------------------------------------------------------

// Eight producers hammer one queue while a consumer drains it — the raw
// data-race smoke for the inbox (run under TSan via the transport label).
// Per-producer FIFO must hold: each producer's items pop in push order.
TEST(MpscQueueTest, EightProducerHammerPreservesPerProducerFifo) {
  constexpr std::size_t kProducers = 8;
  constexpr std::uint32_t kPerProducer = 2'000;
  MpscQueue<Envelope> queue;

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::uint32_t i = 0; i < kPerProducer; ++i) {
        Envelope e;
        e.from = static_cast<SiteId>(p);  // producer id
        e.to = i;                         // per-producer sequence number
        queue.Push(std::move(e));
      }
    });
  }

  std::vector<std::uint32_t> next_expected(kProducers, 0);
  std::size_t popped = 0;
  while (popped < kProducers * kPerProducer) {
    Envelope e;
    if (!queue.TryPop(e)) {
      std::this_thread::yield();
      continue;
    }
    ASSERT_LT(e.from, kProducers);
    ASSERT_EQ(e.to, next_expected[e.from]) << "producer " << e.from;
    ++next_expected[e.from];
    ++popped;
  }
  for (auto& t : producers) t.join();

  EXPECT_TRUE(queue.Empty());
  const auto stats = queue.stats();
  EXPECT_EQ(stats.pushes, kProducers * kPerProducer);
  EXPECT_EQ(stats.pops, kProducers * kPerProducer);
  EXPECT_GE(stats.peak_depth, 1u);
}

}  // namespace
}  // namespace dgc
