// Experiment §4.6: message complexity of a back trace is 2E + P, where E is
// the number of inter-site references traversed and P the number of
// participant sites.
//
// Sweeps ring cycles (E = sites) and complete inter-site digraphs
// (E = sites * (sites - 1)); reports measured call/reply/report counts
// against the formula. The match must be exact — this is the paper's core
// cost claim for the scheme's locality.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace dgc;

void MeasureTrace(System& system, std::size_t expected_edges,
                  std::size_t participants, benchmark::State& state) {
  system.network().ResetStats();
  Site& initiator = system.site(0);
  initiator.back_tracer().StartTrace(
      initiator.tables().outrefs().begin()->first);
  system.SettleNetwork();
  const NetworkStats& stats = system.network().stats();
  state.counters["E_edges"] = static_cast<double>(expected_edges);
  state.counters["P_sites"] = static_cast<double>(participants);
  state.counters["calls"] =
      static_cast<double>(stats.count_of<BackLocalCallMsg>());
  state.counters["replies"] =
      static_cast<double>(stats.count_of<BackReplyMsg>());
  state.counters["reports"] =
      static_cast<double>(stats.count_of<BackReportMsg>());
  state.counters["total_measured"] = static_cast<double>(stats.inter_site_sent);
  // The initiator's own report is a free self-delivery.
  state.counters["formula_2E_plus_P"] =
      static_cast<double>(2 * expected_edges + participants - 1);
  state.counters["bytes"] = static_cast<double>(stats.logical_bytes);
  // One cycle condemned per measured trace: inter-site back messages spent
  // per collected cycle. bench_compare.py gates on this (lower is better).
  state.counters["msgs_per_cycle"] = static_cast<double>(stats.inter_site_sent);
}

void BM_BackTrace_Ring(benchmark::State& state) {
  const std::size_t sites = static_cast<std::size_t>(state.range(0));
  const std::size_t objects_per_site = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.estimated_cycle_length = static_cast<Distance>(sites + 2);
    config.enable_back_tracing = false;  // ripen, then measure one trace
    System system(sites, config);
    const auto cycle = workload::BuildCycle(
        system, {.sites = sites, .objects_per_site = objects_per_site});
    system.RunRounds(sites + 10);
    MeasureTrace(system, sites, sites, state);
  }
}
BENCHMARK(BM_BackTrace_Ring)
    ->Args({2, 1})
    ->Args({4, 1})
    ->Args({8, 1})
    ->Args({16, 1})
    ->Args({32, 1})
    ->Args({64, 1})
    ->Args({8, 16})   // object count within sites must not affect messages
    ->Args({8, 256})
    ->Unit(benchmark::kMicrosecond);

void BM_BackTrace_Clique(benchmark::State& state) {
  const std::size_t sites = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.estimated_cycle_length = static_cast<Distance>(2 * sites);
    config.enable_back_tracing = false;
    System system(sites, config);
    std::vector<ObjectId> objects;
    for (SiteId s = 0; s < sites; ++s) {
      objects.push_back(system.NewObject(s, sites - 1));
    }
    for (std::size_t i = 0; i < sites; ++i) {
      std::size_t slot = 0;
      for (std::size_t j = 0; j < sites; ++j) {
        if (i != j) system.Wire(objects[i], slot++, objects[j]);
      }
    }
    system.RunRounds(sites + 12);
    MeasureTrace(system, sites * (sites - 1), sites, state);
  }
}
BENCHMARK(BM_BackTrace_Clique)->Arg(2)->Arg(4)->Arg(6)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMicrosecond);

// Chains hanging INTO the cycle (garbage pointing at it) are visited
// backwards, adding their edges to E; chains hanging OFF the cycle are not
// visited at all — locality in action.
void BM_BackTrace_CycleWithTail(benchmark::State& state) {
  const std::size_t tail = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.estimated_cycle_length = 8;
    config.enable_back_tracing = false;
    System system(4, config);
    const auto cycle =
        workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
    // Outbound tail (cycle -> chain): must not be traversed.
    workload::AttachChain(system, cycle.objects[1], 1, tail);
    system.RunRounds(16);
    MeasureTrace(system, 2, 2, state);
  }
}
BENCHMARK(BM_BackTrace_CycleWithTail)->Arg(0)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return dgc::bench::RunBenchmarksWithDefaultOut(argc, argv,
                                                 "BENCH_trace_msg.json");
}
