// Ablation: the fault-recovery knob this implementation adds on top of the
// paper (which assumes fault-tolerant messaging, cf. ML94).
//
//   * update_refresh_period — every k-th local trace resends all outref
//     distances. Sweep k: smaller k recovers faster from lost updates but
//     costs more steady-state messages.
//
// A row with k > 0 whose cycle is not collected within the round cap fails
// with an error, and the binary then exits 1: the refresh is the collector's
// only recovery from lost distance updates. (Lost removals are not resent;
// reliable_delivery retransmits them.)
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench_util.h"

namespace {

using namespace dgc;

constexpr std::size_t kRecoveryRoundCap = 80;
constexpr std::size_t kSteadyRounds = 16;

// Rows with a refresh period whose cycle outlived the cap; main exits 1 if
// any.
int recovery_failures = 0;

// A cycle ripens while its sites are partitioned from each other (updates
// lost); after healing, how many rounds until collection? Refresh period is
// the lever.
void BM_RefreshPeriod_RecoveryAfterPartition(benchmark::State& state) {
  const std::uint64_t period = static_cast<std::uint64_t>(state.range(0));
  std::size_t recovery_rounds = 0;
  double steady_msgs_per_round = 0.0;
  for (auto _ : state) {
    CollectorConfig config = dgc::bench::DefaultConfig();
    config.update_refresh_period = period;
    System system(3, config);
    const auto cycle = workload::BuildCycle(
        system, {.sites = 3, .objects_per_site = 1});
    // Live cross-site references so the steady-state refresh cost below has
    // real outrefs to resend.
    for (SiteId s = 0; s < 3; ++s) {
      const ObjectId keeper = system.NewObject(s, 1);
      system.SetPersistentRoot(keeper);
      system.Wire(keeper, 0, system.NewObject((s + 1) % 3, 0));
    }
    // Partition every cycle link; distances freeze at their initial values
    // while each site keeps reporting into the void.
    system.network().SetLinkDown(0, 1, true);
    system.network().SetLinkDown(1, 2, true);
    system.network().SetLinkDown(0, 2, true);
    system.RunRounds(6);
    system.network().SetLinkDown(0, 1, false);
    system.network().SetLinkDown(1, 2, false);
    system.network().SetLinkDown(0, 2, false);
    recovery_rounds =
        dgc::bench::RoundsUntilCollected(system, cycle, kRecoveryRoundCap);
    const bool collected = std::none_of(
        cycle.objects.begin(), cycle.objects.end(),
        [&](ObjectId id) { return system.ObjectExists(id); });
    if (period > 0 && !collected) {
      ++recovery_failures;
      state.SkipWithError("the cycle outlived the round cap");
      break;
    }

    // Steady-state cost: garbage-free world, count update messages/round
    // over a window that is a multiple of every swept period.
    system.network().ResetStats();
    system.RunRounds(kSteadyRounds);
    steady_msgs_per_round =
        static_cast<double>(system.network().stats().count_of<UpdateMsg>()) /
        kSteadyRounds;
  }
  state.counters["refresh_period"] = static_cast<double>(period);
  state.counters["recovery_rounds"] = static_cast<double>(recovery_rounds);
  state.counters["steady_update_msgs_per_round"] = steady_msgs_per_round;
}
BENCHMARK(BM_RefreshPeriod_RecoveryAfterPartition)
    ->Arg(0)   // disabled: never recovers (hits the round cap)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16);

}  // namespace

int main(int argc, char** argv) {
  const int status = dgc::bench::RunBenchmarksWithDefaultOut(
      argc, argv, "BENCH_ablation_recovery.json");
  if (status != 0) return status;
  return recovery_failures == 0 ? 0 : 1;
}
