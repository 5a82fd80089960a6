// Pluggable transport: the seam between the protocol layer (Site, BackTracer)
// and whatever actually moves messages and time forward.
//
// It is exactly what a Site calls: RegisterSite, Send, the four
// failure-detector calls, and the Scheduler its timers live on. Each world
// driver moves time through its own backend, by concrete type. Two backends
// implement the seam, each on one thread:
//
//   * Network (net/network.h) — the deterministic simulator's network
//     itself: every site in the caller's process, its timers on the one
//     Scheduler the Network's own events run on. System always runs on it.
//
//   * SiteAgentTransport (net/site_host.h) — what the one Site in a site
//     process runs over: sends are staged for the coordinator, and the
//     failure-detector queries answer from state the coordinator ships.
//
// The coordinator of a socket world (SocketTransport, net/socket_transport.h)
// hosts no Site: it owns the Network those staged sends enter, and
// SocketWorld drives it directly.
#pragma once

#include <functional>

#include "common/ids.h"
#include "net/messages.h"
#include "sim/scheduler.h"

namespace dgc {

class Transport {
 public:
  using Handler = std::function<void(const Envelope&)>;
  /// Invoked (per observer site) when the failure detector reports a
  /// previously suspected peer healed. `restarted` is true when the peer
  /// crashed and came back as a new incarnation during the outage — its
  /// volatile state (activation frames, in particular) is certainly gone,
  /// so observers may scrub trace state rooted at the old incarnation
  /// instead of waiting out report timeouts.
  using RecoveryListener = std::function<void(SiteId peer, bool restarted)>;

  virtual ~Transport() = default;

  /// The scheduler that runs the timers of every site hosted in this
  /// process (and, in process, the Network's own events).
  [[nodiscard]] virtual Scheduler& scheduler() = 0;

  virtual void RegisterSite(SiteId site, Handler handler) = 0;

  /// Sends a message: into the Network's delivery machinery in process,
  /// staged for the coordinator's next step in a site process.
  virtual void Send(SiteId from, SiteId to, Payload payload) = 0;

  // The failure detector: the Network's own in process; in a site process,
  // state shipped by the coordinator (net/site_host.h).
  virtual void SetRecoveryListener(SiteId observer, RecoveryListener l) = 0;
  virtual void NoteSiteRestarted(SiteId site) = 0;
  [[nodiscard]] virtual bool IsPeerSuspected(SiteId observer,
                                             SiteId peer) const = 0;
  [[nodiscard]] virtual bool failure_detection_enabled() const = 0;
};

}  // namespace dgc
