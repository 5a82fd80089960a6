// Pluggable transport: the seam between the protocol layer (Site, BackTracer,
// System) and whatever actually moves messages and time forward.
//
// Sites see a small site-facing surface (RegisterSite / Send / the
// failure-detector queries) plus a per-site Scheduler; System sees an engine
// surface (now / RunUntilTime / Settle). Two backends implement it:
//
//   * SimTransport (default) — a zero-cost adapter over the deterministic
//     single-threaded simulator: one shared Scheduler, one Network,
//     everything on the caller's thread. Bit-identical to the pre-seam code.
//
//   * ThreadedTransport (net/threaded_transport.h) — each site owns a thread
//     and a private Scheduler; cross-site messages flow through per-site
//     MPSC inboxes under a conservative time-stepped engine. The whole PR 4
//     reliable-delivery / incarnation / failure-detector machinery is reused
//     verbatim: one Network object, confined to the coordinator thread.
//
// Both backends expose the same Network object (network()) so fault
// injection, stats, and config knobs keep working unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "common/config.h"
#include "common/rng.h"
#include "net/network.h"
#include "sim/scheduler.h"

namespace dgc {

/// Engine-level counters, all zero under SimTransport.
struct TransportCounters {
  std::uint64_t timesteps = 0;        // distinct global instants processed
  std::uint64_t parallel_phases = 0;  // site-step fan-outs (>=1 per timestep)
  std::uint64_t site_steps = 0;       // individual site executions
  std::uint64_t handoffs = 0;         // envelopes routed through an inbox
  std::uint64_t staged_sends = 0;     // sends staged on site threads
  std::uint64_t inbox_peak_depth = 0;     // max over all site inboxes
  std::uint64_t inbox_contention = 0;     // lock waits across all inboxes
};

auto Counters(Is<TransportCounters> auto& c) {
  return std::tuple{Counter{"timesteps", c.timesteps},
                    Counter{"parallel_phases", c.parallel_phases},
                    Counter{"site_steps", c.site_steps},
                    Counter{"handoffs", c.handoffs},
                    Counter{"staged_sends", c.staged_sends},
                    Counter{"inbox_peak_depth", c.inbox_peak_depth},
                    Counter{"inbox_contention", c.inbox_contention}};
}
static_assert(ListsEveryMember<TransportCounters>());

/// Per-site slice of the same accounting.
struct SiteTransportCounters {
  std::uint64_t handoffs = 0;
  std::uint64_t staged_sends = 0;
  std::uint64_t steps = 0;
  std::uint64_t queue_peak_depth = 0;
  std::uint64_t queue_contention = 0;
};

auto Counters(Is<SiteTransportCounters> auto& c) {
  return std::tuple{Counter{"handoffs", c.handoffs},
                    Counter{"staged_sends", c.staged_sends},
                    Counter{"steps", c.steps},
                    Counter{"queue_peak_depth", c.queue_peak_depth},
                    Counter{"queue_contention", c.queue_contention}};
}
static_assert(ListsEveryMember<SiteTransportCounters>());

class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual TransportKind kind() const = 0;

  /// The one Network instance (fault injection, stats, reliable channels).
  /// Callers outside the engine must touch it only between engine calls —
  /// it is coordinator-confined under ThreadedTransport (see network.h).
  [[nodiscard]] virtual Network& network() = 0;
  [[nodiscard]] virtual const Network& network() const = 0;

  /// The control scheduler: drives the Network's own events (deliveries,
  /// retransmit timers, recovery notifications) and any world-level
  /// scripting. Under SimTransport this is also every site's scheduler.
  [[nodiscard]] virtual Scheduler& control_scheduler() = 0;

  /// The scheduler a site's own timers live on. Events scheduled here run
  /// on the site's thread under ThreadedTransport — handlers must touch
  /// only that site's state plus Send.
  [[nodiscard]] virtual Scheduler& SchedulerFor(SiteId site) = 0;

  // --- Site-facing surface (mirrors Network, so call sites just rename) --

  virtual void RegisterSite(SiteId site, Network::Handler handler) = 0;

  /// Sends a message. On a site thread the send is staged locally and
  /// replayed into the Network by the coordinator at the next phase
  /// boundary, in deterministic site order; anywhere else it goes straight
  /// to Network::Send.
  virtual void Send(SiteId from, SiteId to, Payload payload) = 0;

  // Virtual so a site-process agent (net/site_host.h) can answer them from
  // failure-detector state shipped by the coordinator instead of a local
  // Network. The defaults forward to network(), which both in-process
  // backends share.
  virtual void SetRecoveryListener(SiteId observer,
                                   Network::RecoveryListener l) {
    network().SetRecoveryListener(observer, std::move(l));
  }
  virtual void NoteSiteRestarted(SiteId site) {
    network().NoteSiteRestarted(site);
  }
  [[nodiscard]] virtual bool IsPeerSuspected(SiteId observer,
                                             SiteId peer) const {
    return network().IsPeerSuspected(observer, peer);
  }
  [[nodiscard]] virtual bool failure_detection_enabled() const {
    return network().failure_detection_enabled();
  }

  // --- Engine surface (System-facing) -----------------------------------

  /// Global simulated time. All schedulers agree on it whenever the engine
  /// is idle (RunUntilTime/Settle sync the clocks before returning).
  [[nodiscard]] virtual SimTime now() const = 0;

  /// Runs every event with time <= t (across all schedulers), then advances
  /// all clocks to t.
  virtual void RunUntilTime(SimTime t) = 0;

  /// Runs until no scheduler holds a pending event, then syncs all clocks
  /// to the last processed instant. The transport-agnostic spelling of
  /// "drain the simulation to idle".
  virtual void Settle() = 0;

  /// Runs the smallest unit of forward progress the backend has: one event
  /// under SimTransport, one pending timestep (all phases at the next event
  /// instant) under the engine backends. Returns false when no work is
  /// pending anywhere. The transport-agnostic spelling of "RunOne" that the
  /// mutator pump loops on.
  virtual bool StepOne() = 0;

  [[nodiscard]] virtual TransportCounters counters() const = 0;
  [[nodiscard]] virtual SiteTransportCounters site_counters(
      SiteId site) const = 0;
};

/// The simulator backend: one shared scheduler, everything inline.
class SimTransport final : public Transport {
 public:
  SimTransport(Scheduler& scheduler, NetworkConfig config, Rng rng)
      : scheduler_(scheduler), network_(scheduler, std::move(config), rng) {}

  [[nodiscard]] TransportKind kind() const override {
    return TransportKind::kSim;
  }
  [[nodiscard]] Network& network() override { return network_; }
  [[nodiscard]] const Network& network() const override { return network_; }
  [[nodiscard]] Scheduler& control_scheduler() override { return scheduler_; }
  [[nodiscard]] Scheduler& SchedulerFor(SiteId /*site*/) override {
    return scheduler_;
  }

  void RegisterSite(SiteId site, Network::Handler handler) override {
    network_.RegisterSite(site, std::move(handler));
  }
  void Send(SiteId from, SiteId to, Payload payload) override {
    network_.Send(from, to, std::move(payload));
  }

  [[nodiscard]] SimTime now() const override { return scheduler_.now(); }
  void RunUntilTime(SimTime t) override { scheduler_.RunUntil(t); }
  void Settle() override { scheduler_.RunUntilIdle(); }
  bool StepOne() override { return scheduler_.RunOne(); }
  [[nodiscard]] TransportCounters counters() const override { return {}; }
  [[nodiscard]] SiteTransportCounters site_counters(
      SiteId /*site*/) const override {
    return {};
  }

 private:
  Scheduler& scheduler_;
  Network network_;
};

/// Builds the backend selected by config.transport. `control` becomes the
/// control scheduler; `site_count` sizes the threaded backend's per-site
/// state (SimTransport ignores it).
std::unique_ptr<Transport> CreateTransport(std::size_t site_count,
                                           Scheduler& control,
                                           NetworkConfig config, Rng rng);

}  // namespace dgc
