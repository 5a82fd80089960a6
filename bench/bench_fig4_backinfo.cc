// Experiment Fig.4: plain tracing cannot compute inref-to-outref
// reachability; the SCC-aware bottom-up pass can, tracing each object once.
// Runs the figure's exact graph through the full local collector and
// reports the computed outsets plus the trace-cost stats.
//
// Each row checks the paper's shape: a and b each get the outset {c, d},
// with the SCC open and closed, and in the scaled figure every entry's
// outset holds all of the spine's remotes. A row that breaks it fails with
// an error and the binary exits 1.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "workload/figures.h"

namespace {

using namespace dgc;

// Rows that broke the figure's shape; main exits 1 if any.
int failures = 0;

void BM_Fig4_OutsetsThroughLocalTrace(benchmark::State& state) {
  const bool close_scc = state.range(0) != 0;
  std::size_t outset_a = 0, outset_b = 0;
  bool each_is_cd = false;
  for (auto _ : state) {
    CollectorConfig config;
    config.suspicion_threshold = 0;  // everything inref'd is suspected
    config.enable_back_tracing = false;
    System system(3, config);
    const auto w = workload::BuildFigure4(system, close_scc);
    system.site(0).StartLocalTrace();
    system.SettleNetwork();
    const auto& info = system.site(0).back_info();
    const auto it_a = info.inref_outsets.find(w.a);
    const auto it_b = info.inref_outsets.find(w.b);
    outset_a = it_a == info.inref_outsets.end() ? 0 : it_a->second.size();
    outset_b = it_b == info.inref_outsets.end() ? 0 : it_b->second.size();
    const std::vector<ObjectId> cd{w.c, w.d};  // distinct sites: sorted
    each_is_cd = it_a != info.inref_outsets.end() && it_a->second == cd &&
                 it_b != info.inref_outsets.end() && it_b->second == cd;
  }
  state.counters["scc_closed"] = close_scc ? 1.0 : 0.0;
  state.counters["outset_a_size"] = static_cast<double>(outset_a);
  state.counters["outset_b_size"] = static_cast<double>(outset_b);
  state.counters["paper_expected_each"] = 2.0;  // {c, d}
  if (!each_is_cd) {
    ++failures;
    state.SkipWithError("a and b do not each get the outset {c, d}");
  }
}
BENCHMARK(BM_Fig4_OutsetsThroughLocalTrace)->Arg(0)->Arg(1);

// Scaled-up Figure 4: many a/b-style inrefs sharing deep z->x->y structure
// with back edges; the bottom-up pass must stay linear in objects.
void BM_Fig4_Scaled(benchmark::State& state) {
  const std::size_t inrefs = static_cast<std::size_t>(state.range(0));
  const std::size_t depth = static_cast<std::size_t>(state.range(1));
  std::uint64_t traced = 0;
  std::size_t short_outsets = 0;
  for (auto _ : state) {
    CollectorConfig config;
    config.suspicion_threshold = 0;
    config.enable_back_tracing = false;
    System system(2, config);
    // Deep shared spine with a closing back edge (one big SCC), plus remote
    // refs sprinkled along it.
    std::vector<ObjectId> spine;
    for (std::size_t i = 0; i < depth; ++i) {
      spine.push_back(system.NewObject(0, 3));
    }
    for (std::size_t i = 0; i + 1 < depth; ++i) {
      system.Wire(spine[i], 0, spine[i + 1]);
    }
    system.Wire(spine.back(), 0, spine.front());
    std::vector<ObjectId> remotes;  // allocated in id order: sorted
    for (std::size_t i = 0; i < depth; i += 8) {
      remotes.push_back(system.NewObject(1, 0));
      system.Wire(spine[i], 1, remotes.back());
    }
    std::vector<ObjectId> entries;
    for (std::size_t i = 0; i < inrefs; ++i) {
      entries.push_back(system.NewObject(0, 1));
      system.Wire(entries.back(), 0, spine[(i * 13) % depth]);
      const ObjectId holder = system.NewObject(1, 1);
      system.Wire(holder, 0, entries.back());
    }
    system.site(0).StartLocalTrace();
    system.SettleNetwork();
    traced = system.site(0).heap().object_count();
    // The spine is one SCC, so every entry reaches every remote on it.
    const auto& outsets = system.site(0).back_info().inref_outsets;
    short_outsets = 0;
    for (const ObjectId entry : entries) {
      const auto it = outsets.find(entry);
      if (it == outsets.end() || it->second != remotes) ++short_outsets;
    }
  }
  state.counters["inrefs"] = static_cast<double>(inrefs);
  state.counters["spine_depth"] = static_cast<double>(depth);
  state.counters["objects"] = static_cast<double>(traced);
  state.counters["short_outsets"] = static_cast<double>(short_outsets);
  if (short_outsets != 0) {
    ++failures;
    state.SkipWithError(
        "an entry's outset lacks some of the spine's remotes");
  }
}
BENCHMARK(BM_Fig4_Scaled)
    ->Args({8, 1000})
    ->Args({64, 1000})
    ->Args({64, 20000})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const int status = dgc::bench::RunBenchmarksWithDefaultOut(
      argc, argv, "BENCH_fig4_backinfo.json");
  if (status != 0) return status;
  return failures == 0 ? 0 : 1;
}
