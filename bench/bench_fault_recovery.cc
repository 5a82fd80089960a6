// Fault recovery: time-to-collect for a 4-site garbage ring over reliable
// channels, at 0% loss (the retransmit machinery must be nearly free) and
// under sustained message loss (retransmission must keep the collection
// finite and within a small factor of the lossless baseline).
//
// Each row checks absolute bounds: at 0% loss, retransmit_overhead <= 0.01;
// under loss, the ring is collected with ttc_ratio_vs_lossless <= 5. A row
// that breaks one fails with an error and the binary exits 1. The counters
// are simulated and deterministic, so the bounds hold on any host. Emits
// BENCH_fault_recovery.json; scripts/bench_compare.py compares two runs'
// rounds_to_collect and time_to_collect.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_util.h"

namespace {

using namespace dgc;

constexpr double kMaxLosslessRetransmitOverhead = 0.01;
constexpr double kMaxTtcRatioVsLossless = 5.0;

// Rows that broke a bound; main exits 1 if any.
int failures = 0;

struct RecoveryRun {
  std::size_t rounds = 0;
  SimTime ticks = 0;
  bool collected = false;
  double retransmit_overhead = 0.0;
};

RecoveryRun CollectRingUnderLoss(double loss) {
  CollectorConfig config = dgc::bench::DefaultConfig();
  config.update_refresh_period = 3;
  NetworkConfig net;
  net.latency = 5;
  net.reliable_delivery = true;  // timeouts derived from the latency profile
  net.drop_probability = loss;
  System system(4, config, net, /*seed=*/42);
  const auto cycle =
      workload::BuildCycle(system, {.sites = 4, .objects_per_site = 1});
  const ObjectId live = system.NewObject(0, 0);
  system.SetPersistentRoot(live);

  RecoveryRun run;
  run.rounds = dgc::bench::RoundsUntilCollected(system, cycle, 120);
  run.collected = !system.ObjectExists(cycle.head());
  run.ticks = system.scheduler().now();
  const NetworkStats& stats = system.network().stats();
  run.retransmit_overhead =
      static_cast<double>(stats.retransmits) /
      static_cast<double>(stats.inter_site_sent > 0 ? stats.inter_site_sent
                                                    : 1);
  return run;
}

void BM_FaultRecovery_GarbageRing(benchmark::State& state) {
  const double loss = static_cast<double>(state.range(0)) / 100.0;
  RecoveryRun run;
  RecoveryRun lossless;
  for (auto _ : state) {
    run = CollectRingUnderLoss(loss);
    lossless = loss > 0.0 ? CollectRingUnderLoss(0.0) : run;
  }
  state.counters["loss_pct"] = static_cast<double>(state.range(0));
  state.counters["rounds_to_collect"] = static_cast<double>(run.rounds);
  state.counters["time_to_collect"] = static_cast<double>(run.ticks);
  state.counters["collected"] = run.collected ? 1.0 : 0.0;
  state.counters["retransmit_overhead"] = run.retransmit_overhead;
  std::string broken;
  if (loss == 0.0) {
    if (run.retransmit_overhead > kMaxLosslessRetransmitOverhead) {
      broken = "lossless retransmit_overhead " +
               std::to_string(run.retransmit_overhead) + " > 0.01";
    }
  } else {
    const double ratio = lossless.ticks > 0
                             ? static_cast<double>(run.ticks) /
                                   static_cast<double>(lossless.ticks)
                             : 0.0;
    state.counters["ttc_ratio_vs_lossless"] = ratio;
    if (!run.collected) {
      broken = "the ring was not collected under loss";
    } else if (ratio > kMaxTtcRatioVsLossless) {
      broken = "ttc_ratio_vs_lossless " + std::to_string(ratio) + " > 5";
    }
  }
  if (!broken.empty()) {
    ++failures;
    state.SkipWithError(broken.c_str());
  }
}
BENCHMARK(BM_FaultRecovery_GarbageRing)->Arg(0)->Arg(10);

}  // namespace

int main(int argc, char** argv) {
  const int status = dgc::bench::RunBenchmarksWithDefaultOut(
      argc, argv, "BENCH_fault_recovery.json");
  if (status != 0) return status;
  return failures == 0 ? 0 : 1;
}
