// Low-churn soak for local-trace reuse.
//
// One system runs a low-churn workload — under 1% of each site's objects
// mutate per epoch, and only one site mutates at a time — so most sites'
// traces are served from the reuse cache. It reports:
//
//   * reuse_hit_rate     — fraction of local traces served from the cache
//     (quiescent skips / traces), gated by bench_compare.py;
//   * marked_per_epoch   — objects actually marked per epoch, across all
//     sites (reused traces mark none).
//
// Reused traces are checked against full traces by the shadow-checked test
// suites (LocalCollector::set_check_reuse_for_testing); here CheckSafety
// guards the numbers.
//
// Emits BENCH_trace_incremental.json by default for bench_compare.py.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/system.h"

namespace {

using namespace dgc;

constexpr std::size_t kChainLength = 3;
constexpr std::size_t kEpochs = 32;
constexpr std::size_t kWarmupEpochs = 8;  // distance convergence, first caches

/// One rooted container per site; each container slot holds a private chain
/// of kChainLength objects, and every eighth chain tail also references the
/// next site's container (steady cross-site inrefs/outrefs).
std::vector<ObjectId> BuildWorld(System& system, std::size_t slots_per_site) {
  std::vector<ObjectId> containers;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    containers.push_back(system.NewObject(s, slots_per_site));
    system.SetPersistentRoot(containers.back());
  }
  for (SiteId s = 0; s < system.site_count(); ++s) {
    for (std::size_t slot = 0; slot < slots_per_site; ++slot) {
      ObjectId prev = kInvalidObject;
      for (std::size_t i = 0; i < kChainLength; ++i) {
        const ObjectId obj = system.NewObject(s, 1);
        if (i == 0) {
          system.Wire(containers[s], slot, obj);
        } else {
          system.Wire(prev, 0, obj);
        }
        prev = obj;
      }
      if (slot % 8 == 0) {
        const SiteId next =
            static_cast<SiteId>((s + 1) % system.site_count());
        system.Wire(prev, 0, containers[next]);
      }
    }
  }
  return containers;
}

/// Rewires a handful of container slots on one site: the old chain becomes
/// garbage (swept by that site's next trace) and a fresh chain replaces it.
/// Touches well under 1% of the site's objects.
void MutateSite(System& system, ObjectId container, std::size_t slots_per_site,
                Rng& rng) {
  const std::size_t rewires = std::max<std::size_t>(1, slots_per_site / 128);
  for (std::size_t r = 0; r < rewires; ++r) {
    const std::size_t slot = rng.NextBelow(slots_per_site);
    system.Unwire(container, slot);
    ObjectId prev = kInvalidObject;
    for (std::size_t i = 0; i < kChainLength; ++i) {
      const ObjectId obj = system.NewObject(container.site, 1);
      if (i == 0) {
        system.Wire(container, slot, obj);
      } else {
        system.Wire(prev, 0, obj);
      }
      prev = obj;
    }
  }
}

struct SoakTotals {
  std::uint64_t marked = 0;
  std::uint64_t traces = 0;
  std::uint64_t skips = 0;
};

SoakTotals Totals(const System& system) {
  SoakTotals t;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    const SiteStats& stats = system.site(s).stats();
    t.marked += stats.objects_marked;
    t.traces += stats.local_traces;
    t.skips += stats.quiescent_skips;
  }
  return t;
}

void BM_LowChurnSoak(benchmark::State& state) {
  const std::size_t sites = static_cast<std::size_t>(state.range(0));
  const std::size_t slots_per_site = static_cast<std::size_t>(state.range(1));

  SoakTotals totals{};
  std::uint64_t reclaimed = 0;
  for (auto _ : state) {
    System system(sites, bench::DefaultConfig(), {}, /*seed=*/29);
    const std::vector<ObjectId> containers =
        BuildWorld(system, slots_per_site);

    SoakTotals base{};
    Rng rng(113);
    for (std::size_t epoch = 0; epoch < kEpochs; ++epoch) {
      if (epoch == kWarmupEpochs) base = Totals(system);
      // Every other epoch one site (rotating) takes its sub-1% of churn;
      // every other site stays quiescent and must be served from cache.
      if (epoch % 2 == 0) {
        const std::size_t victim = (epoch / 2) % sites;
        MutateSite(system, containers[victim], slots_per_site, rng);
      }
      system.RunRound();
    }
    DGC_CHECK(system.CheckSafety().empty());

    const SoakTotals end = Totals(system);
    totals = {end.marked - base.marked, end.traces - base.traces,
              end.skips - base.skips};
    reclaimed = system.TotalObjectsReclaimed();
  }

  const double epochs_counted = static_cast<double>(kEpochs - kWarmupEpochs);
  state.counters["marked_per_epoch"] =
      static_cast<double>(totals.marked) / epochs_counted;
  state.counters["reuse_hit_rate"] =
      static_cast<double>(totals.skips) /
      static_cast<double>(totals.traces ? totals.traces : 1);
  state.counters["objects_reclaimed"] = static_cast<double>(reclaimed);
}
BENCHMARK(BM_LowChurnSoak)
    ->Args({16, 128})
    ->Args({16, 512})
    ->Args({32, 256})
    ->Unit(benchmark::kMillisecond);

// The degenerate best case: a completely idle federation. Every epoch after
// the first must be a quiescent skip on every site.
void BM_IdleFederation(benchmark::State& state) {
  const std::size_t sites = static_cast<std::size_t>(state.range(0));
  SoakTotals totals{};
  for (auto _ : state) {
    System system(sites, bench::DefaultConfig(), {}, /*seed=*/31);
    BuildWorld(system, /*slots_per_site=*/64);
    system.RunRounds(kEpochs);
    totals = Totals(system);
  }
  state.counters["reuse_hit_rate"] =
      static_cast<double>(totals.skips) /
      static_cast<double>(totals.traces ? totals.traces : 1);
  state.counters["marked_per_trace"] =
      static_cast<double>(totals.marked) /
      static_cast<double>(totals.traces ? totals.traces : 1);
}
BENCHMARK(BM_IdleFederation)->Arg(8)->Arg(32)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return dgc::bench::RunBenchmarksWithDefaultOut(
      argc, argv, "BENCH_trace_incremental.json");
}
