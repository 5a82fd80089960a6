// Experiment §7: back tracing against the three comparator schemes on the
// same task — reclaim a W-site garbage ring living in an N-site system with
// bystander live data.
//
// Reported per scheme: inter-site messages, approximate bytes, and whether
// bystander sites were involved (locality). Expected shape, per the paper:
//   * back tracing: small messages, 2E + P of them, zero bystander work;
//   * global mark-sweep: control + gray messages touching every site;
//   * Hughes: update + threshold traffic at every site, every round;
//   * migration: few messages but heavy payload bytes (objects move).
#include <benchmark/benchmark.h>

#include "baselines/central_service.h"
#include "baselines/global_trace.h"
#include "baselines/group_trace.h"
#include "baselines/hughes.h"
#include "baselines/migration.h"
#include "bench_util.h"

namespace {

using namespace dgc;

constexpr std::size_t kTotalSites = 8;

// A live bystander web spread over all sites so global schemes have real
// marking work to do outside the cycle.
void BuildBystanders(System& system, std::size_t per_site) {
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const ObjectId root = system.NewObject(s, per_site);
    system.SetPersistentRoot(root);
    for (std::size_t i = 0; i < per_site; ++i) {
      const ObjectId child = system.NewObject(s, 1);
      system.Wire(root, i, child);
      // One remote edge per bystander root keeps update traffic honest.
      if (i == 0) {
        const ObjectId remote =
            system.NewObject((s + 1) % system.site_count(), 0);
        system.Wire(child, 0, remote);
      }
    }
  }
}

struct Shape {
  std::size_t cycle_sites;
  std::size_t objects_per_site;
};

void ReportNetwork(benchmark::State& state, const System& system,
                   bool collected, std::size_t bystander_calls) {
  const NetworkStats& stats = system.network().stats();
  state.counters["messages"] = static_cast<double>(stats.inter_site_sent);
  state.counters["bytes"] = static_cast<double>(stats.logical_bytes);
  state.counters["collected"] = collected ? 1.0 : 0.0;
  state.counters["bystander_backtrace_calls"] =
      static_cast<double>(bystander_calls);
}

bool CycleGone(const System& system, const workload::CycleHandles& cycle) {
  for (const ObjectId id : cycle.objects) {
    if (system.ObjectExists(id)) return false;
  }
  return true;
}

// Accounting window for every scheme: from the moment the garbage ring
// exists until it is reclaimed, including each scheme's own ripening /
// marking rounds. (The global trace has no per-round infrastructure cost,
// but must be re-run periodically to notice garbage at all — EXPERIMENTS.md
// discusses the amortization.)
void BM_Collect_BackTracing(benchmark::State& state) {
  const Shape shape{static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1))};
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.estimated_cycle_length =
        static_cast<Distance>(shape.cycle_sites + 2);
    System system(kTotalSites, config);
    const auto cycle = workload::BuildCycle(
        system,
        {.sites = shape.cycle_sites, .objects_per_site = shape.objects_per_site});
    BuildBystanders(system, 4);
    system.network().ResetStats();
    const std::size_t rounds =
        dgc::bench::RoundsUntilCollected(system, cycle, 60);
    std::size_t bystander_calls = 0;
    for (SiteId s = static_cast<SiteId>(shape.cycle_sites); s < kTotalSites;
         ++s) {
      bystander_calls += system.site(s).back_tracer().stats().calls_handled;
    }
    ReportNetwork(state, system, rounds < 60, bystander_calls);
    state.counters["rounds"] = static_cast<double>(rounds);
    const NetworkStats& stats = system.network().stats();
    state.counters["backtrace_messages"] =
        static_cast<double>(stats.count_of<BackLocalCallMsg>() +
                            stats.count_of<BackReplyMsg>() +
                            stats.count_of<BackReportMsg>());
  }
}
BENCHMARK(BM_Collect_BackTracing)
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({4, 8});

void BM_Collect_GlobalTrace(benchmark::State& state) {
  const Shape shape{static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1))};
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.enable_back_tracing = false;
    System system(kTotalSites, config);
    const auto cycle = workload::BuildCycle(
        system,
        {.sites = shape.cycle_sites, .objects_per_site = shape.objects_per_site});
    BuildBystanders(system, 4);
    system.network().ResetStats();
    baselines::GlobalTraceCollector collector(system);
    const auto stats = collector.RunCycle();
    ReportNetwork(state, system, CycleGone(system, cycle),
                  /*bystander participation is total by construction*/
                  stats.gray_messages + stats.control_messages);
    state.counters["probe_rounds"] = static_cast<double>(stats.probe_rounds);
  }
}
BENCHMARK(BM_Collect_GlobalTrace)->Args({2, 1})->Args({4, 1})->Args({8, 1})
    ->Args({4, 8});

void BM_Collect_Hughes(benchmark::State& state) {
  const Shape shape{static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1))};
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.enable_back_tracing = false;
    System system(kTotalSites, config);
    const auto cycle = workload::BuildCycle(
        system,
        {.sites = shape.cycle_sites, .objects_per_site = shape.objects_per_site});
    BuildBystanders(system, 4);
    system.network().ResetStats();
    baselines::HughesCollector collector(system, /*lag_rounds=*/4);
    std::size_t rounds = 0;
    for (; rounds < 60 && !CycleGone(system, cycle); ++rounds) {
      collector.RunRound();
    }
    ReportNetwork(state, system, CycleGone(system, cycle),
                  collector.stats().control_messages);
    state.counters["rounds"] = static_cast<double>(rounds);
  }
}
BENCHMARK(BM_Collect_Hughes)->Args({2, 1})->Args({4, 1})->Args({8, 1})
    ->Args({4, 8});

void BM_Collect_Migration(benchmark::State& state) {
  const Shape shape{static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1))};
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.enable_back_tracing = false;
    System system(kTotalSites, config);
    const auto cycle = workload::BuildCycle(
        system,
        {.sites = shape.cycle_sites, .objects_per_site = shape.objects_per_site});
    BuildBystanders(system, 4);
    system.network().ResetStats();
    system.RunRounds(static_cast<int>(shape.cycle_sites) + 6);  // ripen
    baselines::MigrationCollector collector(system, /*migrate_threshold=*/4);
    collector.Converge();
    system.RunRounds(2);
    ReportNetwork(state, system, CycleGone(system, cycle), 0);
    state.counters["migrations"] =
        static_cast<double>(collector.stats().migrations);
    state.counters["payload_bytes_moved"] =
        static_cast<double>(collector.stats().bytes_moved);
  }
}
BENCHMARK(BM_Collect_Migration)->Args({2, 1})->Args({4, 1})->Args({8, 1})
    ->Args({4, 8});

void BM_Collect_GroupTrace(benchmark::State& state) {
  const Shape shape{static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1))};
  const std::size_t bound = static_cast<std::size_t>(state.range(2));
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.enable_back_tracing = false;
    System system(kTotalSites, config);
    const auto cycle = workload::BuildCycle(
        system,
        {.sites = shape.cycle_sites, .objects_per_site = shape.objects_per_site});
    BuildBystanders(system, 4);
    system.network().ResetStats();
    system.RunRounds(static_cast<int>(shape.cycle_sites) + 4);  // ripen
    baselines::GroupTraceCollector collector(system, bound);
    for (int attempt = 0; attempt < 4; ++attempt) {
      if (CycleGone(system, cycle)) break;
      if (!collector.RunOnFirstSuspect().has_value()) break;
    }
    ReportNetwork(state, system, CycleGone(system, cycle),
                  collector.stats().formation_messages);
    state.counters["group_size"] =
        static_cast<double>(collector.stats().last_group_size);
    state.counters["group_bound"] = static_cast<double>(bound);
    state.counters["group_messages"] = static_cast<double>(
        collector.stats().formation_messages +
        collector.stats().gray_messages + collector.stats().control_messages);
  }
}
// The crossover the paper predicts: groups bounded at 4 sites collect 2- and
// 4-site cycles but never the 8-site one; back tracing (above) has no bound.
BENCHMARK(BM_Collect_GroupTrace)
    ->Args({2, 1, 4})
    ->Args({4, 1, 4})
    ->Args({8, 1, 4})
    ->Args({8, 1, 8})
    ->Args({4, 8, 4});

void BM_Collect_CentralService(benchmark::State& state) {
  const Shape shape{static_cast<std::size_t>(state.range(0)),
                    static_cast<std::size_t>(state.range(1))};
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.enable_back_tracing = false;
    System system(kTotalSites, config);
    const auto cycle = workload::BuildCycle(
        system,
        {.sites = shape.cycle_sites, .objects_per_site = shape.objects_per_site});
    BuildBystanders(system, 4);
    system.RunRound();  // tables settled
    system.network().ResetStats();
    baselines::CentralServiceCollector service(system);
    service.RunCycle();
    system.RunRounds(2);
    ReportNetwork(state, system, CycleGone(system, cycle),
                  /*every site reports*/ kTotalSites);
    state.counters["summary_bytes"] =
        static_cast<double>(service.stats().summary_bytes);
    state.counters["condemned"] =
        static_cast<double>(service.stats().inrefs_condemned);
  }
}
BENCHMARK(BM_Collect_CentralService)
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({4, 8});

}  // namespace

BENCHMARK_MAIN();
