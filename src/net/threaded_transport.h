// ThreadedTransport: each site runs on its own thread under a conservative
// time-stepped parallel discrete-event engine.
//
// Threading model (the invariants docs/ARCHITECTURE.md spells out):
//
//   * ONE coordinator thread — the caller of RunUntilTime/Settle. It owns
//     the control Scheduler and the entire Network object (all PR 4
//     reliable-delivery / incarnation / failure-detector machinery runs
//     unmodified, single-threaded, here).
//   * Per-site state — the site's Scheduler, heap, tables, collector — is
//     confined to whichever thread runs that site's step; steps for one
//     timestep run concurrently across sites on a WorkerPool, separated
//     from coordinator work by the pool's fork/join barrier (which gives
//     the happens-before edges TSan wants).
//   * Cross-site communication flows ONLY through the transport: the
//     Network's dispatcher pushes deliveries into per-site MPSC inboxes
//     (coordinator side), and sends issued on site threads are staged in a
//     thread-local buffer and replayed into the Network by the coordinator,
//     in site order, at the phase boundary. Site threads never touch the
//     Network.
//   * The transport owns its WorkerPool: threads - 1 workers, because the
//     coordinator participates in every batch.
//
// Engine: for each global timestep T (the earliest pending instant across
// all schedulers), alternate
//
//     control phase:  run control events <= T (deliveries land in inboxes)
//     parallel phase: every involved site (non-empty inbox or own events
//                     <= T) runs its events <= T and drains its inbox
//     replay:         staged sends enter the Network in site order
//
// until the world is quiescent at T. New work created at T (self-sends,
// zero-latency deliveries) is absorbed by the fixpoint; anything later
// becomes a future timestep. Determinism: site steps touch disjoint state,
// staged sends are replayed in a fixed order, and all RNG draws happen on
// the coordinator — so results are independent of thread interleaving.
//
// Equivalence with SimTransport: with the default jitter-free, drop-free
// network every payload's delivery time is computed identically, so the
// two backends produce the same garbage verdicts and reclaim sets. Under
// jitter/drops the *order of RNG draws* differs (the simulator interleaves
// sends from different sites; the engine replays them site-by-site), so
// individual runs diverge in timing while the protocol outcomes at
// quiescence still agree — the differential tests assert exactly that.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/worker_pool.h"
#include "net/mpsc_queue.h"
#include "net/network.h"
#include "net/transport.h"
#include "sim/scheduler.h"

namespace dgc {

class ThreadedTransport final : public Transport {
 public:
  ThreadedTransport(std::size_t site_count, Scheduler& control,
                    NetworkConfig config, Rng rng);
  ~ThreadedTransport() override;

  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::kThreaded;
  }
  [[nodiscard]] Network& network() override { return network_; }
  [[nodiscard]] const Network& network() const override { return network_; }
  [[nodiscard]] Scheduler& control_scheduler() override { return control_; }
  [[nodiscard]] Scheduler& SchedulerFor(SiteId site) override;

  void RegisterSite(SiteId site, Network::Handler handler) override;
  void Send(SiteId from, SiteId to, Payload payload) override;

  [[nodiscard]] SimTime now() const override { return global_now_; }
  void RunUntilTime(SimTime t) override;
  void Settle() override;
  bool StepOne() override;

  [[nodiscard]] TransportCounters counters() const override;
  [[nodiscard]] SiteTransportCounters site_counters(
      SiteId site) const override;

  /// Worker threads actually running site steps (including the
  /// participating coordinator).
  [[nodiscard]] std::size_t thread_count() const { return threads_; }

  /// Phase-alternation budget per timestep; exceeding it means two sites
  /// are ping-ponging zero-latency messages forever (a protocol livelock,
  /// the analogue of Scheduler::RunUntilIdle's event budget).
  static constexpr std::uint64_t kMaxPhasesPerTimestep = 1'000'000;

 private:
  struct StagedSend {
    SiteId from;
    SiteId to;
    Payload payload;
  };

  /// All state owned by one site. The scheduler and staged buffer are
  /// confined to the thread running the site's current step; the inbox is
  /// the MPSC handoff point; the counters are coordinator-written.
  struct SiteState {
    Scheduler scheduler;
    MpscQueue<Envelope> inbox;
    std::vector<StagedSend> staged;
    std::uint64_t handoffs = 0;      // coordinator-written (dispatcher)
    std::uint64_t staged_sends = 0;  // coordinator-written (replay)
    std::uint64_t steps = 0;         // coordinator-written (phase loop)
  };

  /// Earliest pending instant across the control and all site schedulers.
  [[nodiscard]] SimTime NextEventTime() const;

  /// Runs the control/parallel/replay fixpoint for one global timestep.
  void AdvanceWorldTo(SimTime t);

  /// One site's slice of a parallel phase: run own events <= t, drain the
  /// inbox, repeat until quiescent. Runs on a pool (or coordinator) thread
  /// with the thread-local outbox pointing at the site's staged buffer.
  void SiteStep(SiteId site, SimTime t);

  /// Replays a site's staged sends into the Network (coordinator only).
  void ReplayStaged(SiteState& state);

  /// Advances every scheduler's clock to t without running anything past
  /// its pending events (there are none <= t when this is called), so
  /// god-mode reads of a site's scheduler_.now() between engine calls see
  /// the same instant everywhere.
  void SyncClocksTo(SimTime t);

  /// Points at the stepping site's staged buffer while (and only while)
  /// this thread is inside SiteStep; null on the coordinator outside a
  /// parallel phase, so god-mode sends (e.g. System::RunRound's inline
  /// traces) go straight to the Network exactly as under SimTransport.
  static thread_local std::vector<StagedSend>* tls_staged_;

  Scheduler& control_;
  Network network_;
  std::vector<std::unique_ptr<SiteState>> sites_;
  /// Handler copies so SiteStep can invoke destinations without touching
  /// the (coordinator-confined) Network. Written only during registration,
  /// read-only while the engine runs.
  std::vector<Network::Handler> handlers_;
  std::size_t threads_ = 1;
  std::unique_ptr<WorkerPool> pool_;
  SimTime global_now_ = 0;
  std::vector<SiteId> involved_;  // scratch for the phase loop
  TransportCounters counters_;
};

}  // namespace dgc
