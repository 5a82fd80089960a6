// Sim vs socket head-to-head.
//
// BM_Transport_ScriptedChurn is the sim-vs-socket differential as a bench
// row: the scripted ring churn applied to a System and to a SocketWorld (real
// site processes over Unix-domain sockets) with one seed. It emits socket_*
// figures, the socket engine's handshake/step counters and verdicts_match
// (1 when both backends severed, collected and reclaimed the same objects).
// Tier-1's SocketWorld.SimDifferentialTenSeeds checks the same churn over
// ten seeds, object by object; wall-clock here is informational (real
// processes pay real syscalls).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/socket_world.h"
#include "workload/scripted.h"

namespace {

using namespace dgc;

constexpr std::size_t kChurnSites = 4;

ScriptedChurnSpec BenchChurnSpec() {
  ScriptedChurnSpec spec;
  spec.rounds = 4;
  spec.rings_per_round = 2;
  spec.ring_span = 3;
  spec.locals_per_round = 2;
  spec.cut_probability = 0.6;
  spec.drain_rounds = 8;
  return spec;
}

struct ScriptedOutcome {
  double wall_ms = 0.0;
  std::uint64_t severed = 0;    // tethers cut: rings turned garbage
  std::uint64_t collected = 0;  // cut rings with every object reclaimed
  std::uint64_t reclaimed = 0;
  std::uint64_t objects_left = 0;
  /// Per-object survival, in script order (ring objects, tether, locals):
  /// the census the verdicts_match flag compares across backends.
  std::vector<bool> fates;
};

template <typename ExistsFn>
void FillOutcome(ScriptedOutcome& out, const ScriptedChurnResult& script,
                 const ExistsFn& exists) {
  for (const ScriptedRing& ring : script.rings) {
    if (ring.cut) ++out.severed;
    bool all_gone = true;
    for (const ObjectId obj : ring.objects) {
      const bool alive = exists(obj);
      out.fates.push_back(alive);
      if (alive) all_gone = false;
    }
    out.fates.push_back(exists(ring.tether));
    if (ring.cut && all_gone) ++out.collected;
  }
  for (const ObjectId obj : script.locals) out.fates.push_back(exists(obj));
}

ScriptedOutcome RunScriptedSim(std::uint64_t seed) {
  const auto start = std::chrono::steady_clock::now();
  System system(kChurnSites, dgc::bench::DefaultConfig(), NetworkConfig{},
                seed);
  SystemGodWorld world(system);
  const ScriptedChurnResult script =
      RunScriptedChurn(world, seed, BenchChurnSpec());
  ScriptedOutcome out;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  out.reclaimed = system.TotalObjectsReclaimed();
  out.objects_left = system.TotalObjects();
  FillOutcome(out, script,
              [&](ObjectId id) { return system.ObjectExists(id); });
  return out;
}

ScriptedOutcome RunScriptedSocket(std::uint64_t seed,
                                  SocketCounters& counters) {
  const auto start = std::chrono::steady_clock::now();
  SocketWorldOptions options;
  options.site_count = kChurnSites;
  options.collector = dgc::bench::DefaultConfig();
  options.seed = seed;
  SocketWorld world(std::move(options));
  SocketGodWorld god(world);
  const ScriptedChurnResult script =
      RunScriptedChurn(god, seed, BenchChurnSpec());
  ScriptedOutcome out;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  out.reclaimed = world.TotalObjectsReclaimed();
  out.objects_left = world.TotalObjects();
  FillOutcome(out, script,
              [&](ObjectId id) { return world.ObjectExists(id); });
  counters = world.transport().socket_counters();
  return out;
}

void BM_Transport_ScriptedChurn(benchmark::State& state) {
  constexpr std::uint64_t kSeed = 11;
  ScriptedOutcome sim;
  ScriptedOutcome socket;
  SocketCounters counters;
  for (auto _ : state) {
    sim = RunScriptedSim(kSeed);
    socket = RunScriptedSocket(kSeed, counters);
  }

  const bool verdicts_match = sim.fates == socket.fates &&
                              sim.severed == socket.severed &&
                              sim.collected == socket.collected &&
                              sim.reclaimed == socket.reclaimed &&
                              sim.objects_left == socket.objects_left;

  state.counters["sites"] = static_cast<double>(kChurnSites);
  state.counters["host_cpus"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["sim_wall_ms"] = sim.wall_ms;
  state.counters["socket_wall_ms"] = socket.wall_ms;
  state.counters["verdicts_match"] = verdicts_match ? 1.0 : 0.0;
  state.counters["sim_cycles_severed"] = static_cast<double>(sim.severed);
  state.counters["sim_cycles_collected"] = static_cast<double>(sim.collected);
  state.counters["sim_reclaimed"] = static_cast<double>(sim.reclaimed);
  state.counters["socket_cycles_severed"] =
      static_cast<double>(socket.severed);
  state.counters["socket_cycles_collected"] =
      static_cast<double>(socket.collected);
  state.counters["socket_reclaimed"] = static_cast<double>(socket.reclaimed);
  state.counters["handshakes"] =
      static_cast<double>(counters.handshakes_accepted);
  state.counters["step_requests"] = static_cast<double>(counters.step_requests);
  state.counters["build_ops"] = static_cast<double>(counters.build_ops);
  state.counters["step_timeouts"] = static_cast<double>(counters.step_timeouts);
}
BENCHMARK(BM_Transport_ScriptedChurn)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return dgc::bench::RunBenchmarksWithDefaultOut(argc, argv,
                                                 "BENCH_transport.json");
}
