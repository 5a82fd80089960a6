// Twin-determinism tests for intra-site parallel marking (mark_threads) and
// its interaction with per-site parallel rounds (trace_threads) and
// incremental traces: every thread-count combination must produce the same
// TraceResults, distances, sweep sets, and end-to-end verdicts as the
// sequential collector, over many seeded workloads. Plus unit coverage for
// the shared WorkerPool the two scheduling levels run on.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/worker_pool.h"
#include "core/parallel_trace.h"
#include "core/system.h"
#include "trace_dump.h"
#include "workload/builders.h"

namespace dgc {
namespace {

struct RunFingerprint {
  std::vector<std::string> trace_dumps;  // one final trace per site
  std::string world;                     // end-to-end outcome
};

// Builds a seeded world (random graph + a distributed cycle), runs rounds
// through the configured thread counts, then computes one more concurrent
// trace batch and fingerprints both the per-site TraceResults and the
// end-to-end outcome (objects, reclaims, messages, verdicts, sim clock).
RunFingerprint RunWorld(std::uint64_t seed, std::size_t mark_threads,
                        std::size_t trace_threads, bool incremental) {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 3;
  config.mark_threads = mark_threads;
  config.trace_threads = trace_threads;
  config.incremental_trace = incremental;
  System system(4, config, {}, /*seed=*/seed + 1);
  Rng rng(seed * 977 + 13);
  workload::BuildRandomGraph(
      system, {.sites = 4, .objects_per_site = 48, .slots_per_object = 3},
      rng);
  workload::BuildCycle(system, {.sites = 4, .objects_per_site = 2});
  system.RunRounds(6);

  std::vector<Site*> sites;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    sites.push_back(&system.site(s));
  }
  ParallelTraceExecutor executor(trace_threads);
  const std::vector<TraceResult> results = executor.ComputeAll(sites);

  RunFingerprint fp;
  for (const TraceResult& result : results) {
    fp.trace_dumps.push_back(DumpTraceResult(result));
  }
  const BackTracerStats bt = system.AggregateBackTracerStats();
  std::ostringstream os;
  os << system.TotalObjects() << ' ' << system.TotalObjectsReclaimed() << ' '
     << system.network().stats().inter_site_sent << ' '
     << bt.traces_started << ' ' << bt.traces_completed_garbage << ' '
     << bt.traces_completed_live << ' ' << system.scheduler().now();
  fp.world = os.str();
  return fp;
}

void ExpectSameFingerprint(const RunFingerprint& base,
                           const RunFingerprint& twin,
                           const std::string& label) {
  EXPECT_EQ(base.world, twin.world) << label;
  ASSERT_EQ(base.trace_dumps.size(), twin.trace_dumps.size()) << label;
  for (std::size_t s = 0; s < base.trace_dumps.size(); ++s) {
    EXPECT_EQ(base.trace_dumps[s], twin.trace_dumps[s])
        << label << ", site " << s;
  }
}

TEST(ParallelMarkTwinTest, ThreadCountsAgreeOverTenSeeds) {
  // The acceptance matrix: mark_threads / trace_threads in {1, 2, 8} over 10
  // workload seeds, with incremental traces both off and on. Thread counts
  // must never change results — but trace_threads > 1 deliberately switches
  // RunRound to the snapshot schedule (all sites trace the same pre-round
  // state; documented since the knob was added), so the comparison is within
  // each schedule: mark_threads variants against the sequential baseline
  // (whose mark_threads = 1 leg is the untouched seed code path), and every
  // parallel-round combination against the minimal parallel-round run.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    for (const bool incremental : {false, true}) {
      const std::string inc_label = incremental ? ", incremental" : "";
      const RunFingerprint seq = RunWorld(seed, 1, 1, incremental);
      for (const std::size_t mark : {2, 8}) {
        std::ostringstream label;
        label << "seed " << seed << ", mark_threads " << mark
              << ", trace_threads 1" << inc_label;
        ExpectSameFingerprint(seq, RunWorld(seed, mark, 1, incremental),
                              label.str());
      }
      const RunFingerprint par = RunWorld(seed, 1, 2, incremental);
      const std::vector<std::pair<std::size_t, std::size_t>> par_variants = {
          {1, 8}, {2, 2}, {8, 8}};
      for (const auto& [mark, trace] : par_variants) {
        std::ostringstream label;
        label << "seed " << seed << ", mark_threads " << mark
              << ", trace_threads " << trace << inc_label;
        ExpectSameFingerprint(par, RunWorld(seed, mark, trace, incremental),
                              label.str());
      }
    }
    // Incremental reuse is exact, so it must not change outcomes either —
    // checked on both round schedules.
    ExpectSameFingerprint(RunWorld(seed, 1, 1, false),
                          RunWorld(seed, 8, 1, true),
                          "incremental cross-check, sequential rounds");
    ExpectSameFingerprint(RunWorld(seed, 1, 2, false),
                          RunWorld(seed, 8, 8, true),
                          "incremental cross-check, parallel rounds");
  }
}

TEST(ParallelMarkTwinTest, ParallelMarkCollectsCyclesEndToEnd) {
  // A system running everything through the two-level parallel path must
  // still collect the distributed cycle and hold every invariant.
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 3;
  config.mark_threads = 4;
  config.trace_threads = 4;
  System system(4, config);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 4, .objects_per_site = 2});
  system.RunRounds(25);
  for (const ObjectId id : cycle.objects) {
    EXPECT_FALSE(system.ObjectExists(id)) << id << " leaked";
  }
  EXPECT_TRUE(system.CheckSafety().empty()) << system.CheckSafety();
  EXPECT_TRUE(system.CheckCompleteness().empty()) << system.CheckCompleteness();
  EXPECT_TRUE(system.CheckAllInvariants().empty())
      << system.CheckAllInvariants();
  // The shared pool actually carried tasks (sites and/or shards).
  EXPECT_GT(system.worker_pool().stats().batches, 0u);
}

TEST(ParallelMarkTwinTest, LargeSingleSiteHeapMatchesSequentialMark) {
  // One big site stresses the work-stealing traversal itself (many slabs,
  // deep object graph) rather than the per-site fan-out.
  auto run = [](std::size_t mark_threads) {
    CollectorConfig config;
    config.mark_threads = mark_threads;
    System system(2, config, {}, /*seed=*/3);
    Rng rng(41);
    workload::BuildRandomGraph(system,
                               {.sites = 2,
                                .objects_per_site = 3000,
                                .slots_per_object = 4,
                                .remote_edge_fraction = 0.02},
                               rng);
    system.RunRounds(2);
    std::vector<Site*> sites = {&system.site(0), &system.site(1)};
    ParallelTraceExecutor executor(1);
    std::string dumps;
    for (const TraceResult& r : executor.ComputeAll(sites)) {
      dumps += DumpTraceResult(r);
    }
    return dumps;
  };
  const std::string sequential = run(1);
  EXPECT_EQ(sequential, run(2));
  EXPECT_EQ(sequential, run(8));
}

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.RunBatch(
      hits.size(),
      [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
      4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  const WorkerPoolStats stats = pool.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.tasks_run, 100u);
  EXPECT_GE(stats.occupancy(), 0.0);
  EXPECT_LE(stats.occupancy(), 1.0);
}

TEST(WorkerPoolTest, ZeroThreadPoolRunsInline) {
  // max(trace_threads, mark_threads) == 1 builds a 0-thread pool: the caller
  // drains every batch itself and no thread is ever spawned.
  WorkerPool pool(0);
  int sum = 0;
  pool.RunBatch(10, [&](std::size_t i) { sum += static_cast<int>(i); }, 1);
  EXPECT_EQ(sum, 45);
  EXPECT_EQ(pool.stats().pool_tasks_run, 0u);
  EXPECT_EQ(pool.stats().tasks_run, 10u);
}

TEST(WorkerPoolTest, PropagatesTheFirstException) {
  WorkerPool pool(2);
  EXPECT_THROW(
      pool.RunBatch(
          8,
          [](std::size_t i) {
            if (i == 3) throw std::runtime_error("task failed");
          },
          3),
      std::runtime_error);
  // The pool survives a failed batch and keeps serving.
  int ran = 0;
  pool.RunBatch(4, [&](std::size_t) { ++ran; }, 1);
  EXPECT_EQ(ran, 4);
}

TEST(WorkerPoolTest, NestedBatchesDoNotDeadlock) {
  // Two-level scheduling: a coarse task blocks on an inner batch on the SAME
  // pool. Caller participation guarantees progress even when every pool
  // thread is parked in an outer task.
  WorkerPool pool(2);
  std::atomic<int> inner_runs{0};
  pool.RunBatch(
      4,
      [&](std::size_t) {
        pool.RunBatch(
            4,
            [&](std::size_t) {
              inner_runs.fetch_add(1, std::memory_order_relaxed);
            },
            3);
      },
      3);
  EXPECT_EQ(inner_runs.load(), 16);
}

}  // namespace
}  // namespace dgc
