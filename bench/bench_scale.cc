// Scale engine: open-loop 100-site / 10^6-object runs (ROADMAP: "millions of
// users" means the collector must hold up at deployment scale, not bench
// scale).
//
// Rows:
//   * BM_Scale_OpenLoop/<sites>/<objects_per_site>: instantiate a power-law
//     topology, then drive actor-style request/reply churn at a fixed
//     arrival rate while staggered collection rounds overlap — no drain
//     between mutations. Reports sustained mutation throughput, p50/p99
//     time-to-collect (simulated ticks from tether-sever to full
//     reclamation), messages per collected cycle, a peak-RSS proxy (VmHWM)
//     and the flat-table reuse counters. Every row must keep up with the
//     arrival rate: cycles_collected >= 0.5 x cycles_severed, backlog <=
//     0.5 x cycles_severed, and 0 < ttc_p50 <= ttc_p99 <= 10,000 ticks
//     (a few 500-tick rounds, not dozens). These counters run on the
//     simulated clock, so the bounds hold on any host. A row that breaks
//     one fails, and the binary then exits 1. The small row runs in tier-1
//     (ctest bench_scale_open_loop); the 100 x 10'000 row is the headline
//     configuration.
//   * BM_Scale_Oracles/<sites>/<objects_per_site>: the cost of System's
//     god-mode checks on the OpenLoop world, driven for 6,000 ticks and
//     quiesced: CheckSafety, CheckCompleteness and CheckReferentialIntegrity
//     timed once each, plus the VmHWM rise from the quiesced world across
//     the checks. A check that reports a violation fails the row, and the
//     binary then exits 1.
//   * BM_Scale_TableMutation/<impl>/<entries>: the per-mutation table cost
//     the flat swap targets — an identical find/insert/erase mix against
//     FlatMap (impl 1) and the old std::map (impl 0) at per-site table
//     sizes. Informational only: the 2,048-entry flat/map time ratio
//     follows host load, and on one 4-CPU host it has read from 0.69 to
//     1.06, too wide to gate (EXPERIMENTS.md, "Flat-table spread").
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "bench_util.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "workload/scale.h"

namespace {

using namespace dgc;

/// Peak resident set (VmHWM) in MiB, from /proc/self/status; 0 when the
/// proc interface is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

// Rows that broke a bound or failed a god-mode check; main exits 1 if any.
int failures = 0;

void Fail(benchmark::State& state, const std::string& why) {
  ++failures;
  state.SkipWithError(why.c_str());
}

void BM_Scale_OpenLoop(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  const auto objects_per_site = static_cast<std::size_t>(state.range(1));

  std::uint64_t mutations = 0;
  std::uint64_t collected = 0;
  std::uint64_t severed = 0;
  std::uint64_t backlog = 0;
  std::uint64_t messages = 0;
  std::uint64_t reuses = 0;
  std::uint64_t grows = 0;
  SimTime p50 = 0;
  SimTime p99 = 0;

  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    System system(sites, config);

    workload::ScaleTopologySpec topo;
    topo.sites = sites;
    topo.objects_per_site = objects_per_site;
    topo.seed = 42;
    const workload::ScaleTopologyPlan plan = workload::BuildScaleTopology(topo);
    workload::InstantiateScaleTopology(system, plan);
    system.network().ResetStats();

    workload::ScaleDriverSpec drive;
    drive.duration = 20'000;
    drive.mean_interarrival = 5;
    drive.mean_lifetime = 400;
    drive.round_period = 500;
    drive.seed = 7;
    workload::ScaleDriver driver(system, drive);
    driver.Run();

    mutations = driver.stats().mutations;
    collected = driver.stats().cohorts_collected;
    severed = driver.stats().cohorts_severed;
    backlog = driver.backlog();
    messages = system.network().stats().inter_site_sent;
    p50 = driver.time_to_collect().Quantile(0.5);
    p99 = driver.time_to_collect().Quantile(0.99);
    reuses = 0;
    grows = 0;
    for (SiteId s = 0; s < system.site_count(); ++s) {
      reuses += system.site(s).stats().table_slot_reuses;
      grows += system.site(s).stats().table_slot_grows;
    }
  }

  state.counters["sites"] = static_cast<double>(sites);
  state.counters["objects"] =
      static_cast<double>(sites * objects_per_site);
  state.counters["mutations_per_sec"] = benchmark::Counter(
      static_cast<double>(mutations), benchmark::Counter::kIsRate);
  state.counters["cycles_collected"] = static_cast<double>(collected);
  state.counters["cycles_severed"] = static_cast<double>(severed);
  state.counters["backlog"] = static_cast<double>(backlog);
  state.counters["ttc_p50"] = static_cast<double>(p50);
  state.counters["ttc_p99"] = static_cast<double>(p99);
  state.counters["msgs_per_cycle"] =
      collected == 0 ? 0.0
                     : static_cast<double>(messages) /
                           static_cast<double>(collected);
  state.counters["table_slot_reuses"] = static_cast<double>(reuses);
  state.counters["table_slot_grows"] = static_cast<double>(grows);
  state.counters["peak_rss_mb"] = PeakRssMb();

  std::string broken;
  if (severed == 0 || 2 * collected < severed) {
    broken = "fewer than half the severed cycles collected";
  } else if (2 * backlog > severed) {
    broken = "backlog above half the severed cycles";
  } else if (p50 <= 0 || p99 < p50 || p99 > 10'000) {
    broken = "ttc p50/p99 outside 0 < p50 <= p99 <= 10000 ticks";
  }
  if (!broken.empty()) {
    Fail(state, broken + " (collected " + std::to_string(collected) + "/" +
                    std::to_string(severed) + ", backlog " +
                    std::to_string(backlog) + ", p50/p99 " +
                    std::to_string(p50) + "/" + std::to_string(p99) + ")");
  }
}
// The small row runs in tier-1; the 100 x 10'000 row is the paper-scale
// headline (10^6 objects, single iteration — construction dominates re-runs).
BENCHMARK(BM_Scale_OpenLoop)
    ->Args({10, 2'000})
    ->Args({100, 10'000})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_Scale_Oracles(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  const auto objects_per_site = static_cast<std::size_t>(state.range(1));

  double safety_ms = 0.0;
  double completeness_ms = 0.0;
  double integrity_ms = 0.0;
  double rss_rise_mb = 0.0;
  std::size_t objects = 0;

  for (auto _ : state) {
    state.PauseTiming();
    System system(sites, dgc::bench::DefaultConfig());
    workload::ScaleTopologySpec topo;
    topo.sites = sites;
    topo.objects_per_site = objects_per_site;
    topo.seed = 42;
    workload::InstantiateScaleTopology(system,
                                       workload::BuildScaleTopology(topo));
    workload::ScaleDriverSpec drive;
    drive.duration = 6'000;
    drive.mean_interarrival = 5;
    drive.mean_lifetime = 400;
    drive.round_period = 500;
    drive.seed = 7;
    workload::ScaleDriver driver(system, drive);
    driver.Run();
    driver.Quiesce();
    // The rise counts from the quiesced world, so it includes the first
    // check the world sees (below); later checks reuse the memory it freed.
    const double rss_before = PeakRssMb();
    // Quiesce stops once every severed ring is gone; the topology's own
    // garbage may take a few more rounds (bench_e2e's scale unit does the
    // same before its checks).
    for (int i = 0; i < 20 && !system.CheckCompleteness().empty(); ++i) {
      system.RunRound();
    }
    objects = system.TotalObjects();
    state.ResumeTiming();

    std::string violation;
    const auto timed = [&](double& ms, auto check) {
      const auto start = std::chrono::steady_clock::now();
      std::string v = check();
      ms = std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count();
      if (violation.empty()) violation = std::move(v);
    };
    timed(safety_ms, [&] { return system.CheckSafety(); });
    timed(completeness_ms, [&] { return system.CheckCompleteness(); });
    timed(integrity_ms, [&] { return system.CheckReferentialIntegrity(); });
    rss_rise_mb = PeakRssMb() - rss_before;
    if (!violation.empty()) {
      Fail(state, "oracle violation: " + violation);
      break;
    }
  }

  state.counters["sites"] = static_cast<double>(sites);
  state.counters["objects"] = static_cast<double>(objects);
  state.counters["safety_ms"] = safety_ms;
  state.counters["completeness_ms"] = completeness_ms;
  state.counters["integrity_ms"] = integrity_ms;
  state.counters["peak_rss_rise_mb"] = rss_rise_mb;
}
// The 10 x 2'000 row runs in tier-1 (ctest bench_scale_oracles); the
// 100 x 10'000 row is the size of bench_e2e's scale world.
BENCHMARK(BM_Scale_Oracles)
    ->Args({10, 2'000})
    ->Args({100, 10'000})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

/// The table traffic one driver mutation induces on a site's ref tables.
/// Object ids are allocated monotonically, so barrier inserts land at the
/// tail of the key order; actor cohorts die young, so erases also hit near
/// the tail (a sliding window of `window` churn keys). Lookups — the bulk of
/// the traffic, from barriers and trace scans — span the whole table. This
/// is the pattern that favours a sorted vector: contiguous binary search for
/// the lookups, O(window) shifts (not O(table)) for the structural ops.
/// Erases anywhere else shift the table's tail, which is why batches of
/// them go through one compaction pass instead: a trace's outref trims
/// (RefTables::RemoveOutrefs) and the inrefs an update message empties
/// (RefTables::ApplyUpdate), which in the scale workload land all over the
/// table, not in this window.
template <typename Map>
std::uint64_t RunMutationMix(Map& map, Rng& rng, std::size_t ops,
                             std::uint64_t bulk, std::uint64_t window,
                             std::uint64_t& next_key) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < ops; ++i) {
    // Barrier and trace lookups: mostly the long-lived topology bulk, some
    // against the in-flight churn region.
    for (int k = 0; k < 6; ++k) {
      const auto it = map.find(ObjectId{0, rng.NextBelow(bulk)});
      if (it != map.end()) acc += static_cast<std::uint64_t>(it->second);
    }
    for (int k = 0; k < 2; ++k) {
      const auto it = map.find(ObjectId{0, next_key - 1 - rng.NextBelow(window)});
      if (it != map.end()) acc += static_cast<std::uint64_t>(it->second);
    }
    // Transfer barrier on a fresh object; its cohort dies `window` ids later.
    map[ObjectId{0, next_key}] = static_cast<int>(i);
    map.erase(ObjectId{0, next_key - window});
    ++next_key;
  }
  return acc;
}

void BM_Scale_TableMutation(benchmark::State& state) {
  const bool use_flat = state.range(0) == 1;
  const auto entries = static_cast<std::size_t>(state.range(1));
  constexpr std::uint64_t kChurnWindow = 64;
  constexpr std::size_t kOpsPerIteration = 10'000;

  FlatMap<ObjectId, int> flat;
  std::map<ObjectId, int> tree;
  std::uint64_t next_key = 0;
  // Long-lived topology bulk plus a warm churn window at the tail.
  for (; next_key < entries + kChurnWindow; ++next_key) {
    if (use_flat) {
      flat[ObjectId{0, next_key}] = static_cast<int>(next_key);
    } else {
      tree[ObjectId{0, next_key}] = static_cast<int>(next_key);
    }
  }

  Rng rng(1234);
  std::uint64_t acc = 0;
  for (auto _ : state) {
    acc += use_flat ? RunMutationMix(flat, rng, kOpsPerIteration, entries,
                                     kChurnWindow, next_key)
                    : RunMutationMix(tree, rng, kOpsPerIteration, entries,
                                     kChurnWindow, next_key);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kOpsPerIteration));
  state.counters["entries"] = static_cast<double>(entries);
  state.counters["flat"] = use_flat ? 1.0 : 0.0;
}
BENCHMARK(BM_Scale_TableMutation)
    ->Args({0, 2'048})
    ->Args({1, 2'048})
    ->Args({0, 16'384})
    ->Args({1, 16'384})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  const int status =
      dgc::bench::RunBenchmarksWithDefaultOut(argc, argv, "BENCH_scale.json");
  if (status != 0) return status;
  return failures == 0 ? 0 : 1;
}
