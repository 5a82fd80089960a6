// Pluggable transport: the seam between the protocol layer (Site, BackTracer)
// and whatever actually moves messages and time forward.
//
// It is exactly what a Site calls: RegisterSite, Send, the four
// failure-detector calls, and the Scheduler its timers live on. Each world
// driver moves time through its own backend, by concrete type. Two backends
// implement the seam, each on one thread:
//
//   * SimTransport (below) — a zero-cost adapter over the deterministic
//     simulator: one shared Scheduler, one Network, every site in the
//     caller's process. System always runs on it.
//
//   * SiteAgentTransport (net/site_host.h) — what the one Site in a site
//     process runs over: sends are staged for the coordinator, and the
//     failure-detector queries answer from state the coordinator ships.
//
// The coordinator of a socket world (SocketTransport, net/socket_transport.h)
// hosts no Site, so it is not a Transport: it owns the Network those staged
// sends enter, and SocketWorld drives it directly.
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

  /// The scheduler that runs the timers of every site hosted in this
  /// process (and, in process, the Network's own events).
  [[nodiscard]] virtual Scheduler& scheduler() = 0;

  virtual void RegisterSite(SiteId site, Network::Handler handler) = 0;

  /// Sends a message: straight into the Network in process, staged for the
  /// coordinator's next step in a site process.
  virtual void Send(SiteId from, SiteId to, Payload payload) = 0;

  // The failure detector: the Network's in process; in a site process,
  // state shipped by the coordinator (net/site_host.h).
  virtual void SetRecoveryListener(SiteId observer,
                                   Network::RecoveryListener l) = 0;
  virtual void NoteSiteRestarted(SiteId site) = 0;
  [[nodiscard]] virtual bool IsPeerSuspected(SiteId observer,
                                             SiteId peer) const = 0;
  [[nodiscard]] virtual bool failure_detection_enabled() const = 0;
};

/// The simulator backend: one shared scheduler, everything inline.
class SimTransport final : public Transport {
 public:
  SimTransport(Scheduler& scheduler, NetworkConfig config, Rng rng)
      : scheduler_(scheduler), network_(scheduler, std::move(config), rng) {}

  /// The one Network instance (fault injection, stats, reliable channels).
  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] const Network& network() const { return network_; }
  [[nodiscard]] Scheduler& scheduler() override { return scheduler_; }

  void RegisterSite(SiteId site, Network::Handler handler) override {
    network_.RegisterSite(site, std::move(handler));
  }
  void Send(SiteId from, SiteId to, Payload payload) override {
    network_.Send(from, to, std::move(payload));
  }

  void SetRecoveryListener(SiteId observer,
                           Network::RecoveryListener l) override {
    network_.SetRecoveryListener(observer, std::move(l));
  }
  void NoteSiteRestarted(SiteId site) override {
    network_.NoteSiteRestarted(site);
  }
  [[nodiscard]] bool IsPeerSuspected(SiteId observer,
                                     SiteId peer) const override {
    return network_.IsPeerSuspected(observer, peer);
  }
  [[nodiscard]] bool failure_detection_enabled() const override {
    return network_.failure_detection_enabled();
  }

 private:
  Scheduler& scheduler_;
  Network network_;
};

}  // namespace dgc
