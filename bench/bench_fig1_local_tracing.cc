// Experiment Fig.1: locality of local tracing + the cycle it cannot collect,
// plus the raw forward-trace throughput the whole scheme stands on.
//
// Reproduces the Section 2 narrative as measurable rows:
//   * acyclic garbage (d, e) is collected within two rounds via update
//     messages, involving only the sites it is reachable from;
//   * the inter-site cycle {f, g} survives arbitrarily many rounds without
//     back tracing, and is reclaimed with it.
//
// The MarkThroughput rows measure the local trace's marking rate on
// 100k-object heaps: the slab store with its one mark stamp per slot against
// a replica of the historical std::map<index, Object> layout (with its two
// inline epochs), plus two shapes taken
// from the end-to-end workloads — churn's root fanning out to slotless
// leaves, and scale's graph in which one wired slot in five holds a remote
// ref, so the trace looks up an outref record per remote edge. The run
// emits BENCH_trace.json (google-benchmark JSON) so scripts/bench_compare.py
// can gate regressions in marked-objects/sec across commits.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
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

/// Full-traces a heap that never changes and whose objects are all
/// reachable, once per iteration, and reports clean-marked objects per
/// second. A trace that misses an object, or whose sweep would free one,
/// fails the row.
void RunMarkThroughput(benchmark::State& state, dgc::Heap& heap,
                       dgc::RefTables& tables) {
  dgc::LocalCollector collector(heap, tables);
  std::uint64_t marked_total = 0;
  for (auto _ : state) {
    // The heap never changes, so drop the reuse cache: every iteration
    // must mark the whole graph.
    collector.InvalidateCache();
    const dgc::TraceResult result = collector.Run({});
    if (result.stats.objects_marked_clean != heap.object_count()) {
      ++mark_failures;
      state.SkipWithError("the trace did not clean-mark every object");
      break;
    }
    if (!result.objects_to_free.empty()) {
      ++mark_failures;
      state.SkipWithError("the sweep would free a reachable object");
      break;
    }
    marked_total += result.stats.objects_marked_clean;
    benchmark::DoNotOptimize(result.stats.objects_marked_clean);
  }
  state.counters["objects"] = static_cast<double>(heap.object_count());
  state.counters["objects_per_sec"] = benchmark::Counter(
      static_cast<double>(marked_total), benchmark::Counter::kIsRate);
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
  dgc::CollectorConfig config;
  dgc::Heap heap(0);
  dgc::RefTables tables(0, config);
  BuildChainHeap(heap, static_cast<std::size_t>(state.range(0)), nullptr);
  RunMarkThroughput(state, heap, tables);
}
BENCHMARK(BM_Fig1_MarkThroughput_SlabHeap)
    ->Arg(static_cast<long>(kMarkObjects))
    ->Unit(benchmark::kMillisecond);

// Churn's standing live heap (bench/e2e's AddRootedLiveData): one
// persistent root whose slots point at N-1 slotless leaves.
void BM_Fig1_MarkThroughput_ChurnShape(benchmark::State& state) {
  const std::size_t count = static_cast<std::size_t>(state.range(0));
  dgc::CollectorConfig config;
  dgc::Heap heap(0);
  dgc::RefTables tables(0, config);
  const dgc::ObjectId root = heap.Allocate(count - 1);
  heap.AddPersistentRoot(root);
  for (std::size_t i = 0; i + 1 < count; ++i) {
    heap.SetSlot(root, i, heap.Allocate(0));
  }
  RunMarkThroughput(state, heap, tables);
}
BENCHMARK(BM_Fig1_MarkThroughput_ChurnShape)
    ->Arg(static_cast<long>(kMarkObjects))
    ->Unit(benchmark::kMillisecond);

// The SlabHeap graph with scale's share of remote edges.
void BM_Fig1_MarkThroughput_ScaleShape(benchmark::State& state) {
  dgc::CollectorConfig config;
  dgc::Heap heap(0);
  dgc::RefTables tables(0, config);
  BuildChainHeap(heap, static_cast<std::size_t>(state.range(0)), &tables);
  RunMarkThroughput(state, heap, tables);
}
BENCHMARK(BM_Fig1_MarkThroughput_ScaleShape)
    ->Arg(static_cast<long>(kMarkObjects))
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
