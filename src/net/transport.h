// Pluggable transport: the seam between the protocol layer (Site, BackTracer)
// and whatever actually moves messages and time forward.
//
// Sites see a small site-facing surface (RegisterSite / Send / the
// failure-detector queries) plus the Scheduler their timers live on. Each
// world driver moves time through its own backend, by concrete type. Three
// backends implement the seam, each on one thread:
//
//   * SimTransport (below) — a zero-cost adapter over the deterministic
//     simulator: one shared Scheduler, one Network, every site in the
//     caller's process. System always runs on it.
//
//   * SiteAgentTransport (net/site_host.h) — what the one Site in a site
//     process runs over: sends are staged for the coordinator, and the
//     failure-detector queries answer from state the coordinator ships.
//
//   * SocketTransport (net/socket_transport.h) — the coordinator of a world
//     whose sites are separate OS processes; SocketWorld runs on it. It owns
//     the Network, so the reliable-delivery, incarnation and
//     failure-detector machinery applies to real links unchanged.
#pragma once

#include <utility>

#include "common/config.h"
#include "common/rng.h"
#include "net/network.h"
#include "sim/scheduler.h"

namespace dgc {

class Transport {
 public:
  virtual ~Transport() = default;

  /// The one Network instance (fault injection, stats, reliable channels).
  [[nodiscard]] virtual Network& network() = 0;
  [[nodiscard]] virtual const Network& network() const = 0;

  /// The scheduler that runs the Network's own events (deliveries,
  /// retransmit timers, recovery notifications), any world-level scripting
  /// and the timers of every site hosted in this process.
  [[nodiscard]] virtual Scheduler& scheduler() = 0;

  // --- Site-facing surface (mirrors Network, so call sites just rename) --

  virtual void RegisterSite(SiteId site, Network::Handler handler) = 0;

  /// Sends a message: straight into the Network in process, staged for the
  /// coordinator's next step in a site process.
  virtual void Send(SiteId from, SiteId to, Payload payload) = 0;

  // Virtual so a site-process agent (net/site_host.h) can answer them from
  // failure-detector state shipped by the coordinator instead of a local
  // Network. The defaults forward to network().
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
};

/// The simulator backend: one shared scheduler, everything inline.
class SimTransport final : public Transport {
 public:
  SimTransport(Scheduler& scheduler, NetworkConfig config, Rng rng)
      : scheduler_(scheduler), network_(scheduler, std::move(config), rng) {}

  [[nodiscard]] Network& network() override { return network_; }
  [[nodiscard]] const Network& network() const override { return network_; }
  [[nodiscard]] Scheduler& scheduler() override { return scheduler_; }

  void RegisterSite(SiteId site, Network::Handler handler) override {
    network_.RegisterSite(site, std::move(handler));
  }
  void Send(SiteId from, SiteId to, Payload payload) override {
    network_.Send(from, to, std::move(payload));
  }

 private:
  Scheduler& scheduler_;
  Network network_;
};

}  // namespace dgc
