// Experiment §4.7: multiple concurrent back traces.
//
// The paper argues overlap is unlikely (one ioref crosses D2 first and its
// trace sweeps the cycle before others trigger) and harmless when it
// happens. Measures: traces started when all sites trigger simultaneously,
// message overhead versus the single-trace baseline, and correctness.
//
// A row whose cycle survives fails with an error, as does a simultaneous-
// trigger row in which fewer traces end Garbage than were started: every
// initiator's trace must reach the verdict, its own or, through trace
// coalescing, the senior trace's. The binary then exits 1.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"

namespace {

using namespace dgc;

// Rows that failed one of the checks above; main exits 1 if any.
int failures = 0;

void Fail(benchmark::State& state, const char* why) {
  ++failures;
  state.SkipWithError(why);
}

bool Collected(const System& system, const workload::CycleHandles& cycle) {
  return std::none_of(cycle.objects.begin(), cycle.objects.end(),
                      [&](ObjectId id) { return system.ObjectExists(id); });
}

void BM_Concurrent_SimultaneousTriggers(benchmark::State& state) {
  const std::size_t sites = static_cast<std::size_t>(state.range(0));
  const std::size_t initiators = static_cast<std::size_t>(state.range(1));
  std::uint64_t messages = 0;
  std::uint64_t garbage_outcomes = 0;
  std::uint64_t batches = 0;
  std::uint64_t coalesced = 0;
  bool collected = false;
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.estimated_cycle_length = static_cast<Distance>(sites + 2);
    config.enable_back_tracing = false;
    NetworkConfig net;
    net.latency = 20;  // slow enough that traces genuinely overlap
    System system(sites, config, net);
    const auto cycle = workload::BuildCycle(
        system, {.sites = sites, .objects_per_site = 1});
    system.RunRounds(sites + 10);
    system.network().ResetStats();
    for (std::size_t i = 0; i < initiators; ++i) {
      Site& site = system.site(static_cast<SiteId>(i));
      site.back_tracer().StartTrace(site.tables().outrefs().begin()->first);
    }
    system.SettleNetwork();
    messages = system.network().stats().inter_site_sent;
    batches = system.network().stats().count_of<BackCallBatchMsg>();
    const BackTracerStats bt = system.AggregateBackTracerStats();
    garbage_outcomes = bt.traces_completed_garbage;
    coalesced = bt.branches_coalesced;
    system.RunRounds(3);
    collected = Collected(system, cycle);
    if (!collected) {
      Fail(state, "the cycle survived");
      break;
    }
    if (garbage_outcomes < initiators) {
      Fail(state, "fewer Garbage outcomes than initiators");
      break;
    }
  }
  state.counters["sites"] = static_cast<double>(sites);
  state.counters["initiators"] = static_cast<double>(initiators);
  state.counters["messages"] = static_cast<double>(messages);
  state.counters["single_trace_formula"] =
      static_cast<double>(2 * sites + sites - 1);
  state.counters["garbage_outcomes"] = static_cast<double>(garbage_outcomes);
  state.counters["collected"] = collected ? 1.0 : 0.0;
  // One multi-suspect cycle per run: inter-site back messages spent per
  // collected cycle. bench_compare.py gates on this (lower is better).
  state.counters["msgs_per_cycle"] = static_cast<double>(messages);
  state.counters["call_batches"] = static_cast<double>(batches);
  state.counters["branches_coalesced"] = static_cast<double>(coalesced);
}
BENCHMARK(BM_Concurrent_SimultaneousTriggers)
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({8, 1})
    ->Args({8, 4})
    ->Args({8, 8});

// Natural triggering (no forced simultaneity): how many traces actually
// start per collected cycle when distances trigger organically — the
// paper's claim that the first trace usually wins.
void BM_Concurrent_NaturalTriggering(benchmark::State& state) {
  const std::size_t sites = static_cast<std::size_t>(state.range(0));
  std::uint64_t traces_started = 0;
  std::uint64_t messages = 0;
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.estimated_cycle_length = static_cast<Distance>(sites);
    System system(sites, config);
    const auto cycle = workload::BuildCycle(
        system, {.sites = sites, .objects_per_site = 1});
    system.network().ResetStats();
    dgc::bench::RoundsUntilCollected(system, cycle, 80);
    const BackTracerStats bt = system.AggregateBackTracerStats();
    traces_started = bt.traces_started;
    const NetworkStats& net = system.network().stats();
    messages = net.count_of<BackLocalCallMsg>() +
               net.count_of<BackCallBatchMsg>() +
               net.count_of<BackReplyMsg>() + net.count_of<BackReportMsg>();
    if (!Collected(system, cycle)) {
      Fail(state, "the cycle survived");
      break;
    }
  }
  state.counters["sites"] = static_cast<double>(sites);
  state.counters["traces_per_cycle"] = static_cast<double>(traces_started);
  state.counters["msgs_per_cycle"] = static_cast<double>(messages);
}
BENCHMARK(BM_Concurrent_NaturalTriggering)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Many disjoint cycles collected in parallel: aggregate messages scale
// linearly with the number of cycles (each trace stays local to its cycle).
void BM_Concurrent_DisjointCycles(benchmark::State& state) {
  const std::size_t pairs = static_cast<std::size_t>(state.range(0));
  std::uint64_t messages = 0;
  bool all_collected = false;
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    System system(2 * pairs, config);
    std::vector<workload::CycleHandles> cycles;
    for (std::size_t p = 0; p < pairs; ++p) {
      cycles.push_back(workload::BuildCycle(
          system, {.sites = 2,
                   .objects_per_site = 1,
                   .first_site = static_cast<SiteId>(2 * p)}));
    }
    system.network().ResetStats();
    system.RunRounds(20);
    messages = system.network().stats().count_of<BackLocalCallMsg>() +
               system.network().stats().count_of<BackCallBatchMsg>() +
               system.network().stats().count_of<BackReplyMsg>() +
               system.network().stats().count_of<BackReportMsg>();
    all_collected = std::all_of(
        cycles.begin(), cycles.end(),
        [&](const workload::CycleHandles& c) { return Collected(system, c); });
    if (!all_collected) {
      Fail(state, "a cycle survived");
      break;
    }
  }
  state.counters["cycles"] = static_cast<double>(pairs);
  state.counters["backtrace_messages"] = static_cast<double>(messages);
  state.counters["per_cycle"] =
      static_cast<double>(messages) / static_cast<double>(pairs);
  state.counters["msgs_per_cycle"] =
      static_cast<double>(messages) / static_cast<double>(pairs);
  state.counters["all_collected"] = all_collected ? 1.0 : 0.0;
}
BENCHMARK(BM_Concurrent_DisjointCycles)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

}  // namespace

int main(int argc, char** argv) {
  const int status = dgc::bench::RunBenchmarksWithDefaultOut(
      argc, argv, "BENCH_trace_concurrent.json");
  if (status != 0) return status;
  return failures == 0 ? 0 : 1;
}
