// Experiment §4.6 (piggybacking): "These messages are small and can be
// piggybacked on other messages."
//
// Runs the same collection workload under increasing batch windows and
// reports logical vs. wire messages and bytes: batching coalesces the
// protocol's chatter (updates + back-trace calls/replies/reports sharing a
// channel) into far fewer wire messages at a modest latency cost.
//
// Each row checks that shape: every ring is collected, a zero window ships
// each payload alone (wire_msgs == logical_msgs), and a positive window
// ships fewer wire messages and bytes than payloads. A row that breaks one
// fails with an error and the binary exits 1. The counters are simulated
// and deterministic, so the checks hold on any host.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace dgc;

// Rows that broke the piggybacking shape; main exits 1 if any.
int failures = 0;

void BM_Piggyback_ManyCyclesOneChannel(benchmark::State& state) {
  const SimTime window = state.range(0);
  const std::size_t cycles = static_cast<std::size_t>(state.range(1));
  std::uint64_t logical = 0, wire = 0;
  std::uint64_t logical_bytes = 0, wire_bytes = 0;
  bool collected = false;
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.estimated_cycle_length = 4;
    NetworkConfig net;
    net.latency = 10;
    net.batch_window = window;
    System system(2, config, net);
    // `cycles` disjoint two-object rings, all between sites 0 and 1: their
    // distances ripen in lock-step, so their back traces run concurrently
    // and the calls/replies/reports share the 0<->1 channels.
    std::vector<workload::CycleHandles> rings;
    for (std::size_t i = 0; i < cycles; ++i) {
      rings.push_back(workload::BuildCycle(
          system, {.sites = 2, .objects_per_site = 1}));
    }
    system.RunRounds(12);
    collected = true;
    for (const auto& ring : rings) {
      for (const ObjectId id : ring.objects) {
        if (system.ObjectExists(id)) collected = false;
      }
    }
    logical = system.network().stats().inter_site_sent;
    wire = system.network().stats().wire_messages;
    logical_bytes = system.network().stats().logical_bytes;
    wire_bytes = system.network().stats().wire_bytes;
  }
  state.counters["batch_window"] = static_cast<double>(window);
  state.counters["cycles"] = static_cast<double>(cycles);
  state.counters["logical_msgs"] = static_cast<double>(logical);
  state.counters["wire_msgs"] = static_cast<double>(wire);
  state.counters["piggyback_ratio"] =
      static_cast<double>(logical) / static_cast<double>(wire ? wire : 1);
  state.counters["logical_bytes"] = static_cast<double>(logical_bytes);
  state.counters["wire_bytes"] = static_cast<double>(wire_bytes);
  state.counters["all_collected"] = collected ? 1.0 : 0.0;
  const char* broken = nullptr;
  if (!collected) {
    broken = "a ring was not collected";
  } else if (window == 0 && wire != logical) {
    broken = "without a batch window, wire_msgs != logical_msgs";
  } else if (window > 0 && (wire >= logical || wire_bytes >= logical_bytes)) {
    broken = "the batch window saved no wire messages or bytes";
  }
  if (broken != nullptr) {
    ++failures;
    state.SkipWithError(broken);
  }
}
BENCHMARK(BM_Piggyback_ManyCyclesOneChannel)
    ->Args({0, 16})
    ->Args({5, 16})
    ->Args({20, 16})
    ->Args({20, 64})
    ->Args({80, 64});

}  // namespace

int main(int argc, char** argv) {
  const int status = dgc::bench::RunBenchmarksWithDefaultOut(
      argc, argv, "BENCH_piggyback.json");
  if (status != 0) return status;
  return failures == 0 ? 0 : 1;
}
