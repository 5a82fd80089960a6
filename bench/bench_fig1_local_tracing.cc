// Experiment Fig.1: locality of local tracing + the cycle it cannot collect,
// plus the raw forward-trace throughput the whole scheme stands on.
//
// Reproduces the Section 2 narrative as measurable rows:
//   * acyclic garbage (d, e) is collected within two rounds via update
//     messages, involving only the sites it is reachable from;
//   * the inter-site cycle {f, g} survives arbitrarily many rounds without
//     back tracing, and is reclaimed with it.
//
// The MarkThroughput rows measure the local trace's marking rate. Four rows
// re-trace one 100k-object heap that stays in cache: the chain heap against
// a replica of the historical std::map<index, Object> layout (with its two
// inline epochs), plus two shapes taken
// from the end-to-end workloads — churn's root fanning out to slotless
// leaves, and scale's graph in which one wired slot in five holds a remote
// ref, so the trace looks up an outref record per remote edge. The
// ColdSites row traces 64 scale-shaped 10k-object heaps round-robin, many
// times the L2 cache in all, so each trace starts cold as a scale site's
// does. The run
// emits BENCH_trace.json (google-benchmark JSON) so scripts/bench_compare.py
// can gate regressions in marked-objects/sec across commits.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "localgc/local_collector.h"
#include "refs/tables.h"
#include "store/heap.h"
#include "workload/figures.h"

namespace {

dgc::CollectorConfig Config(bool back_tracing) {
  dgc::CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 3;
  config.enable_back_tracing = back_tracing;
  return config;
}

void BM_Fig1_LocalTracingOnly(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  std::size_t leaked = 0;
  for (auto _ : state) {
    dgc::System system(3, Config(false));
    const auto w = dgc::workload::BuildFigure1(system);
    system.RunRounds(rounds);
    leaked = (system.ObjectExists(w.f) ? 1 : 0) +
             (system.ObjectExists(w.g) ? 1 : 0);
    benchmark::DoNotOptimize(leaked);
  }
  state.counters["rounds"] = rounds;
  state.counters["cycle_objects_leaked"] = static_cast<double>(leaked);
}
BENCHMARK(BM_Fig1_LocalTracingOnly)->Arg(2)->Arg(8)->Arg(32);

void BM_Fig1_WithBackTracing(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  std::size_t leaked = 0;
  std::uint64_t traces = 0;
  for (auto _ : state) {
    dgc::System system(3, Config(true));
    const auto w = dgc::workload::BuildFigure1(system);
    system.RunRounds(rounds);
    leaked = (system.ObjectExists(w.f) ? 1 : 0) +
             (system.ObjectExists(w.g) ? 1 : 0);
    traces = system.AggregateBackTracerStats().traces_completed_garbage;
    benchmark::DoNotOptimize(leaked);
  }
  state.counters["rounds"] = rounds;
  state.counters["cycle_objects_leaked"] = static_cast<double>(leaked);
  state.counters["garbage_traces"] = static_cast<double>(traces);
}
BENCHMARK(BM_Fig1_WithBackTracing)->Arg(8)->Arg(16)->Arg(32);

// --- Forward-trace marking throughput --------------------------------------

constexpr std::size_t kMarkObjects = 100'000;

// Rows whose trace did not clean-mark every object, or that would sweep
// one; main exits 1 if any.
int mark_failures = 0;

/// One site's heap and ref tables.
struct MarkSite {
  MarkSite(dgc::SiteId id, const dgc::CollectorConfig& config)
      : heap(id), tables(id, config) {}
  dgc::Heap heap;
  dgc::RefTables tables;
};

/// Full-traces each site's heap in turn, once per iteration; no heap ever
/// changes and every object is reachable. Reports clean-marked objects per
/// second of whole traces, and the clean mark's own nanoseconds per
/// object. A trace that misses an object, or whose sweep would free one,
/// fails the row.
void RunMarkThroughput(benchmark::State& state,
                       const std::vector<std::unique_ptr<MarkSite>>& sites) {
  std::vector<std::unique_ptr<dgc::LocalCollector>> collectors;
  std::size_t objects = 0;
  for (const auto& site : sites) {
    collectors.push_back(
        std::make_unique<dgc::LocalCollector>(site->heap, site->tables));
    objects += site->heap.object_count();
  }
  std::uint64_t marked_total = 0;
  std::uint64_t mark_ns = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < sites.size(); ++i) {
      // The heap never changes, so drop the reuse cache: every iteration
      // must mark the whole graph.
      collectors[i]->InvalidateCache();
      const dgc::TraceResult result = collectors[i]->Run({});
      if (result.stats.objects_marked_clean !=
          sites[i]->heap.object_count()) {
        ++mark_failures;
        state.SkipWithError("the trace did not clean-mark every object");
        return;
      }
      if (!result.objects_to_free.empty()) {
        ++mark_failures;
        state.SkipWithError("the sweep would free a reachable object");
        return;
      }
      marked_total += result.stats.objects_marked_clean;
      mark_ns += result.stats.mark_wall_ns;
      benchmark::DoNotOptimize(result.stats.objects_marked_clean);
    }
  }
  state.counters["objects"] = static_cast<double>(objects);
  state.counters["objects_per_sec"] = benchmark::Counter(
      static_cast<double>(marked_total), benchmark::Counter::kIsRate);
  state.counters["mark_ns_per_object"] =
      static_cast<double>(mark_ns) / static_cast<double>(marked_total);
}

/// One site, as the single-heap rows trace.
std::vector<std::unique_ptr<MarkSite>> OneSite(
    const dgc::CollectorConfig& config) {
  std::vector<std::unique_ptr<MarkSite>> sites;
  sites.push_back(std::make_unique<MarkSite>(0, config));
  return sites;
}

/// The graph the SlabHeap and MapHeapBaseline rows trace: object 0 is the
/// root, every object i links to object i+1 (slot 0, guaranteeing full
/// reachability) and to a random earlier object (slot 1, realistic
/// pointer-chasing fan-in). With `tables`, two random edges in five go to a
/// remote object instead, each with its outref, so one wired slot in five
/// crosses sites as in the scale topology's default remote_edge_fraction.
void BuildChainHeap(dgc::Heap& heap, std::size_t count,
                    dgc::RefTables* tables) {
  dgc::Rng rng(42);
  std::vector<dgc::ObjectId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ids.push_back(heap.Allocate(2));
  heap.AddPersistentRoot(ids[0]);
  for (std::size_t i = 0; i + 1 < count; ++i) {
    heap.SetSlot(ids[i], 0, ids[i + 1]);
    if (i == 0) continue;
    if (tables != nullptr && i % 5 < 2) {
      // About 10k distinct remote objects over 99 other sites.
      const dgc::ObjectId remote{
          static_cast<dgc::SiteId>(1 + rng.NextBelow(99)),
          1 + rng.NextBelow(100)};
      tables->EnsureOutref(remote);
      heap.SetSlot(ids[i], 1, remote);
    } else {
      heap.SetSlot(ids[i], 1, ids[rng.NextBelow(i)]);
    }
  }
}

void BM_Fig1_MarkThroughput_SlabHeap(benchmark::State& state) {
  const dgc::CollectorConfig config;
  const auto sites = OneSite(config);
  BuildChainHeap(sites[0]->heap, static_cast<std::size_t>(state.range(0)),
                 nullptr);
  RunMarkThroughput(state, sites);
}
BENCHMARK(BM_Fig1_MarkThroughput_SlabHeap)
    ->Arg(static_cast<long>(kMarkObjects))
    ->Unit(benchmark::kMillisecond);

// Churn's standing live heap (bench/e2e's AddRootedLiveData): one
// persistent root whose slots point at N-1 slotless leaves.
void BM_Fig1_MarkThroughput_ChurnShape(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  const dgc::CollectorConfig config;
  const auto sites = OneSite(config);
  dgc::Heap& heap = sites[0]->heap;
  const dgc::ObjectId root = heap.Allocate(count - 1);
  heap.AddPersistentRoot(root);
  for (std::size_t i = 0; i + 1 < count; ++i) {
    heap.SetSlot(root, i, heap.Allocate(0));
  }
  RunMarkThroughput(state, sites);
}
BENCHMARK(BM_Fig1_MarkThroughput_ChurnShape)
    ->Arg(static_cast<long>(kMarkObjects))
    ->Unit(benchmark::kMillisecond);

// The SlabHeap graph with scale's share of remote edges.
void BM_Fig1_MarkThroughput_ScaleShape(benchmark::State& state) {
  const dgc::CollectorConfig config;
  const auto sites = OneSite(config);
  BuildChainHeap(sites[0]->heap, static_cast<std::size_t>(state.range(0)),
                 &sites[0]->tables);
  RunMarkThroughput(state, sites);
}
BENCHMARK(BM_Fig1_MarkThroughput_ScaleShape)
    ->Arg(static_cast<long>(kMarkObjects))
    ->Unit(benchmark::kMillisecond);

// Scale's cold per-site mark: `range(0)` sites of 10k objects with 3 slots
// each, traced round-robin. Slot 0 chains object i to i+1 (full
// reachability); slots 1 and 2 each hold a remote ref with probability 0.3
// and otherwise a random earlier local object, so one wired slot in five is
// remote, with about 6k distinct outrefs per site. 64 sites keep about
// 45 MiB of heap, many times a 2 MiB L2, so each trace starts cold.
void BM_Fig1_MarkThroughput_ColdSites(benchmark::State& state) {
  constexpr std::size_t kObjects = 10'000;
  constexpr std::size_t kSlots = 3;
  const auto site_count = static_cast<dgc::SiteId>(state.range(0));
  const dgc::CollectorConfig config;
  std::vector<std::unique_ptr<MarkSite>> sites;
  dgc::Rng rng(42);
  std::vector<dgc::ObjectId> ids;
  for (dgc::SiteId s = 0; s < site_count; ++s) {
    sites.push_back(std::make_unique<MarkSite>(s, config));
    dgc::Heap& heap = sites.back()->heap;
    ids.clear();
    for (std::size_t i = 0; i < kObjects; ++i) {
      ids.push_back(heap.Allocate(kSlots));
    }
    heap.AddPersistentRoot(ids[0]);
    for (std::size_t i = 0; i < kObjects; ++i) {
      if (i + 1 < kObjects) heap.SetSlot(ids[i], 0, ids[i + 1]);
      for (std::size_t slot = 1; slot < kSlots; ++slot) {
        if (rng.NextBelow(10) < 3) {
          const dgc::ObjectId remote{
              static_cast<dgc::SiteId>(
                  (s + 1 + rng.NextBelow(site_count - 1)) % site_count),
              1 + rng.NextBelow(kObjects)};
          sites.back()->tables.EnsureOutref(remote);
          heap.SetSlot(ids[i], slot, remote);
        } else if (i > 0) {
          heap.SetSlot(ids[i], slot, ids[rng.NextBelow(i)]);
        }
      }
    }
  }
  RunMarkThroughput(state, sites);
}
BENCHMARK(BM_Fig1_MarkThroughput_ColdSites)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// Replica of the historical heap layout — ordered std::map keyed by object
// index, epochs inline in the node — running the identical mark + sweep-scan
// loops the collector used to run against it. The ratio of the two
// objects_per_sec counters is the slab refactor's speedup.
void BM_Fig1_MarkThroughput_MapHeapBaseline(benchmark::State& state) {
  struct MapObject {
    std::vector<std::uint64_t> slots;
    std::uint64_t mark_epoch = 0;
    std::uint64_t clean_epoch = 0;
  };
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  std::map<std::uint64_t, MapObject> heap;
  dgc::Rng rng(42);
  for (std::uint64_t i = 1; i <= count; ++i) {
    MapObject object;
    object.slots.assign(2, 0);  // 0 = null, matching index numbering from 1
    heap.emplace(i, std::move(object));
  }
  for (std::uint64_t i = 1; i < count; ++i) {
    heap.find(i)->second.slots[0] = i + 1;
    if (i > 1) heap.find(i)->second.slots[1] = 1 + rng.NextBelow(i - 1);
  }
  std::uint64_t epoch = 0;
  std::uint64_t marked_total = 0;
  std::vector<std::uint64_t> stack;
  for (auto _ : state) {
    ++epoch;
    std::uint64_t marked = 0;
    MapObject& root = heap.find(1)->second;
    root.mark_epoch = root.clean_epoch = epoch;
    ++marked;
    stack.push_back(1);
    while (!stack.empty()) {
      const std::uint64_t current = stack.back();
      stack.pop_back();
      for (const std::uint64_t target : heap.find(current)->second.slots) {
        if (target == 0) continue;
        MapObject& object = heap.find(target)->second;
        if (object.clean_epoch == epoch) continue;
        object.mark_epoch = object.clean_epoch = epoch;
        ++marked;
        stack.push_back(target);
      }
    }
    // The sweep scan the collector's phase 3 performs.
    std::uint64_t swept = 0;
    for (const auto& [index, object] : heap) {
      if (object.mark_epoch != epoch) ++swept;
    }
    benchmark::DoNotOptimize(swept);
    marked_total += marked;
  }
  state.counters["objects"] = static_cast<double>(count);
  state.counters["objects_per_sec"] = benchmark::Counter(
      static_cast<double>(marked_total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fig1_MarkThroughput_MapHeapBaseline)
    ->Arg(static_cast<long>(kMarkObjects))
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: default the file reporter to BENCH_trace.json so every run
// leaves a machine-readable trajectory for scripts/bench_compare.py. An
// explicit --benchmark_out on the command line still wins.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_trace.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return mark_failures == 0 ? 0 : 1;
}
