// Scalability: "It is suitable for emerging distributed object systems that
// must scale to a large number of sites" (Section 8).
//
// Sweeps the system size with a FIXED amount of garbage (one 2-site cycle
// plus per-site live data): back tracing's total and per-bystander cost must
// stay flat as sites grow — the work is a function of the garbage, not of
// the system. Also sweeps cycle size at fixed system size (cost ∝ cycle).
#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"

namespace {

using namespace dgc;

void BM_Scale_SystemSizeFixedGarbage(benchmark::State& state) {
  const std::size_t sites = static_cast<std::size_t>(state.range(0));
  std::uint64_t backtrace_msgs = 0;
  std::uint64_t total_msgs = 0;
  std::size_t rounds = 0;
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    System system(sites, config);
    const auto cycle = dgc::bench::BuildCycleScenario(
        system, {.cycle_sites = 2, .objects_per_site = 1, .live_per_site = 4});
    rounds = dgc::bench::RoundsUntilCollected(system, cycle, 40);
    const NetworkStats& stats = system.network().stats();
    backtrace_msgs = stats.count_of<BackLocalCallMsg>() +
                     stats.count_of<BackReplyMsg>() +
                     stats.count_of<BackReportMsg>();
    total_msgs = stats.inter_site_sent;
  }
  state.counters["sites"] = static_cast<double>(sites);
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["backtrace_msgs"] = static_cast<double>(backtrace_msgs);
  state.counters["total_msgs"] = static_cast<double>(total_msgs);
}
BENCHMARK(BM_Scale_SystemSizeFixedGarbage)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_Scale_CycleSizeFixedSystem(benchmark::State& state) {
  const std::size_t cycle_sites = static_cast<std::size_t>(state.range(0));
  std::uint64_t backtrace_msgs = 0;
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.estimated_cycle_length = static_cast<Distance>(cycle_sites + 2);
    System system(32, config);
    const auto cycle = dgc::bench::BuildCycleScenario(
        system,
        {.cycle_sites = cycle_sites, .objects_per_site = 1,
         .live_per_site = 4});
    dgc::bench::RoundsUntilCollected(system, cycle, 80);
    const NetworkStats& stats = system.network().stats();
    backtrace_msgs = stats.count_of<BackLocalCallMsg>() +
                     stats.count_of<BackReplyMsg>() +
                     stats.count_of<BackReportMsg>();
  }
  state.counters["cycle_sites"] = static_cast<double>(cycle_sites);
  state.counters["backtrace_msgs"] = static_cast<double>(backtrace_msgs);
  state.counters["per_cycle_site"] =
      static_cast<double>(backtrace_msgs) / static_cast<double>(cycle_sites);
}
BENCHMARK(BM_Scale_CycleSizeFixedSystem)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: default the file reporter to BENCH_trace_scalability.json for
// scripts/bench_compare.py. An explicit --benchmark_out still wins.
int main(int argc, char** argv) {
  return dgc::bench::RunBenchmarksWithDefaultOut(
      argc, argv, "BENCH_trace_scalability.json");
}
