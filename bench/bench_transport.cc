// Transport backends head-to-head: the same seeded scenarios run under the
// deterministic simulator and under the other backends, one JSON record per
// comparison, so the speedup (and its verdict-equality precondition) is
// something bench_compare.py --check-transport can gate.
//
// Rows:
//   * BM_Transport_OpenLoop/<sites>/<objects_per_site>: drive the power-law
//     request/reply churn with same-instant collection rounds
//     (round_stagger 0 — every site's trace lands in one parallel phase,
//     the configuration the threaded engine parallelises) under BOTH
//     backends, order-balanced: two iterations, sim then threaded and
//     threaded then sim, so neither backend always pays the cold first
//     run. Reports each backend's mean wall-clock, the speedup of the
//     means, both backends' severed/collected/reclaimed figures plus
//     verdicts_match (1 when every run reproduced the first sim run's
//     counts and survivor census exactly), host_cpus (the gate only
//     enforces a speedup floor when the host has cores to parallelise on),
//     and the threaded engine's queue-depth/handoff counters.
//   * BM_Transport_ScriptedChurn: the sim-vs-socket differential as a bench
//     row — the scripted ring churn applied to a System and to a SocketWorld
//     (real site processes over Unix-domain sockets) with one seed. Emits
//     socket_* figures and the socket engine's handshake/step counters.
//     Verdict equality is the gate; wall-clock is informational (real
//     processes pay real syscalls — there is no speedup leg to enforce).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/socket_world.h"
#include "net/transport.h"
#include "workload/scale.h"
#include "workload/scripted.h"

namespace {

using namespace dgc;

struct RunResult {
  double wall_ms = 0.0;
  std::uint64_t mutations = 0;
  std::uint64_t severed = 0;
  std::uint64_t collected = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t objects_left = 0;
  TransportCounters transport;

  [[nodiscard]] bool SameVerdicts(const RunResult& other) const {
    return severed == other.severed && collected == other.collected &&
           reclaimed == other.reclaimed && objects_left == other.objects_left;
  }
};

double MeanWallMs(const std::vector<RunResult>& runs) {
  double total = 0.0;
  for (const RunResult& run : runs) total += run.wall_ms;
  return runs.empty() ? 0.0 : total / static_cast<double>(runs.size());
}

RunResult RunScenario(TransportKind kind, std::size_t sites,
                      std::size_t objects_per_site) {
  CollectorConfig config = dgc::bench::DefaultConfig();
  NetworkConfig net;
  net.transport = kind;

  const auto start = std::chrono::steady_clock::now();
  System system(sites, config, net, /*seed=*/42);

  workload::ScaleTopologySpec topo;
  topo.sites = sites;
  topo.objects_per_site = objects_per_site;
  topo.seed = 42;
  workload::InstantiateScaleTopology(system, workload::BuildScaleTopology(topo));

  workload::ScaleDriverSpec drive;
  drive.duration = 20'000;
  drive.mean_interarrival = 5;
  drive.mean_lifetime = 400;
  drive.round_period = 500;
  drive.round_stagger = 0;  // same-instant rounds: one parallel phase each
  drive.seed = 7;
  workload::ScaleDriver driver(system, drive);
  driver.Run();
  driver.Quiesce();
  const auto end = std::chrono::steady_clock::now();

  RunResult out;
  out.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  out.mutations = driver.stats().mutations;
  out.severed = driver.stats().cohorts_severed;
  out.collected = driver.stats().cohorts_collected;
  out.reclaimed = system.TotalObjectsReclaimed();
  out.objects_left = system.TotalObjects();
  out.transport = system.transport().counters();
  return out;
}

void BM_Transport_OpenLoop(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  const auto objects_per_site = static_cast<std::size_t>(state.range(1));

  std::vector<RunResult> sims;
  std::vector<RunResult> threadeds;
  bool sim_first = true;
  for (auto _ : state) {
    if (sim_first) {
      sims.push_back(RunScenario(TransportKind::kSim, sites, objects_per_site));
    }
    threadeds.push_back(
        RunScenario(TransportKind::kThreaded, sites, objects_per_site));
    if (!sim_first) {
      sims.push_back(RunScenario(TransportKind::kSim, sites, objects_per_site));
    }
    sim_first = !sim_first;
  }

  const RunResult& sim = sims.front();
  const RunResult& threaded = threadeds.front();
  bool verdicts_match = true;
  for (const auto* runs : {&sims, &threadeds}) {
    for (const RunResult& run : *runs) {
      verdicts_match = verdicts_match && run.SameVerdicts(sim);
    }
  }
  const double sim_ms = MeanWallMs(sims);
  const double threaded_ms = MeanWallMs(threadeds);

  state.counters["sites"] = static_cast<double>(sites);
  state.counters["objects"] = static_cast<double>(sites * objects_per_site);
  state.counters["host_cpus"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["sim_wall_ms"] = sim_ms;
  state.counters["threaded_wall_ms"] = threaded_ms;
  state.counters["speedup"] = threaded_ms == 0.0 ? 0.0 : sim_ms / threaded_ms;
  state.counters["verdicts_match"] = verdicts_match ? 1.0 : 0.0;
  state.counters["sim_cycles_severed"] = static_cast<double>(sim.severed);
  state.counters["sim_cycles_collected"] = static_cast<double>(sim.collected);
  state.counters["sim_reclaimed"] = static_cast<double>(sim.reclaimed);
  state.counters["threaded_cycles_severed"] =
      static_cast<double>(threaded.severed);
  state.counters["threaded_cycles_collected"] =
      static_cast<double>(threaded.collected);
  state.counters["threaded_reclaimed"] =
      static_cast<double>(threaded.reclaimed);
  state.counters["timesteps"] =
      static_cast<double>(threaded.transport.timesteps);
  state.counters["parallel_phases"] =
      static_cast<double>(threaded.transport.parallel_phases);
  state.counters["site_steps"] =
      static_cast<double>(threaded.transport.site_steps);
  state.counters["handoffs"] = static_cast<double>(threaded.transport.handoffs);
  state.counters["staged_sends"] =
      static_cast<double>(threaded.transport.staged_sends);
  state.counters["queue_peak"] =
      static_cast<double>(threaded.transport.inbox_peak_depth);
  state.counters["queue_contention"] =
      static_cast<double>(threaded.transport.inbox_contention);
}
// The small row gates CI (and keeps TSan runs affordable); the large row is
// the headline sim-vs-threaded comparison on the PR 7 scale scenario shape.
// Two iterations: one per backend order.
BENCHMARK(BM_Transport_OpenLoop)
    ->Args({4, 1'000})
    ->Args({10, 2'000})
    ->Iterations(2)
    ->Unit(benchmark::kMillisecond);

// --- sim vs socket -----------------------------------------------------

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
