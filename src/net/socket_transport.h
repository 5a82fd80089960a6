// Coordinator side of the socket transport: real-process sites over
// Unix-domain stream sockets.
//
// The engine is a conservative time-stepped fixpoint. For each global
// timestep T (the earliest pending instant across the control Scheduler and
// every site's last reported next event) it alternates
//
//     control phase: run control events <= T (Network deliveries land in
//                    per-site outbound buffers through its dispatcher)
//     site phase:    every involved site (outbound envelopes, or its own
//                    events <= T) gets a StepRequest carrying its envelopes
//                    and runs its events <= T
//     replay:        the staged sends that come back in StepReplies enter
//                    the Network in site order
//
// until the world is quiescent at T. The coordinator owns the control
// Scheduler and the ONE Network (so the whole reliable-delivery /
// incarnation / failure-detector machinery applies to real links
// unchanged), and all RNG draws happen here; replaying in a fixed,
// interleaving-free site order means seeded runs under the default
// jitter-free network produce verdicts and reclaim sets identical to the
// in-process Network's.
//
// The step loop is pipelined: one StepRequest is in flight to every
// involved site simultaneously, replies are absorbed in whatever order they
// arrive under a single shared real-time deadline, and the wave is applied
// in involved-site order — so N sites overlap their computing instead of
// serializing behind the slowest, while the Network observes a fixed
// mutation order. A reply whose staged sends name a site that does not
// exist, a sender other than the replying site, or a kind no site process
// handles (kBaselineOnly), is a protocol failure: the site is disconnected
// before any of its sends enter the Network.
//
// Failure handling is where this backend earns its keep:
//
//   * step timeout, process alive  -> the site is PAUSED (SIGSTOP chaos, GC
//     stall): it is marked down in the Network (heartbeat/suspicion
//     machinery degrades gracefully), excluded from the involved set, its
//     outbound is retained, and its owed reply is absorbed whenever it
//     arrives — strictly one outstanding request per site, so a resumed
//     process never sees interleaved frames;
//   * EOF / dead process           -> CRASHED: outbound to the dead
//     incarnation is dropped, the supervisor restarts the process with
//     backoff, and the replacement dials back in at incarnation + 1 — the
//     handshake classifies kAcceptRestart, NoteSiteRestarted fences stale
//     traffic and dead-letters the old channels, and a resync step collects
//     the restored site's re-registration InsertMsgs;
//   * severed socket, process alive-> the site redials at the SAME
//     incarnation (kAcceptReconnect): no fencing, outbound retained.
//
// Addressing is a single Unix-domain listening socket; nothing in the
// protocol depends on it (frames are a plain byte stream, TCP-ready).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "net/network.h"
#include "net/wire.h"
#include "sim/scheduler.h"

namespace dgc {

struct SocketCounters {
  std::uint64_t handshakes_accepted = 0;
  std::uint64_t handshakes_rejected = 0;  // bad magic/version/site/stale
  std::uint64_t reconnects = 0;           // same-incarnation re-dials
  std::uint64_t restarts_accepted = 0;    // incarnation+1 replacements
  std::uint64_t step_requests = 0;
  std::uint64_t step_timeouts = 0;  // replies not received in time
  std::uint64_t late_replies = 0;   // owed replies absorbed after a timeout
  std::uint64_t resync_steps = 0;   // first step after a (re)connection
  std::uint64_t build_ops = 0;
  std::uint64_t queries = 0;
  std::uint64_t severed = 0;      // connections closed by chaos
  std::uint64_t disconnects = 0;  // EOF/EPIPE observed on a site link
};

/// Not a Transport: no Site runs in the coordinator's process.
class SocketTransport final {
 public:
  /// Binds the listening socket at `socket_path` (must not exist yet; the
  /// caller owns the directory). Site processes are spawned by the caller
  /// and dial in; WaitForAllConnected gates the first engine call.
  SocketTransport(std::size_t site_count, Scheduler& control,
                  NetworkConfig config, Rng rng, std::string socket_path);
  ~SocketTransport();
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// The one Network instance (fault injection, stats, reliable channels).
  [[nodiscard]] Network& network() { return network_; }

  /// Runs every event with time <= t, then advances the clock to t. The
  /// bounded run for a world whose sites always report a next event, so
  /// that Settle never goes idle (socket_test's fake sites).
  void RunUntilTime(SimTime t);
  /// Runs until no event is pending anywhere, granting bounded real time
  /// for external progress (restarts, resumes, redials). A paused site's
  /// owed reply gets settle_grace_ms of waiting in all, across every
  /// Settle, not a fresh grace each time.
  void Settle();
  /// Gives `site`'s owed reply a fresh settle grace: its process was just
  /// resumed, so the late reply is on its way.
  void RenewSettleGrace(SiteId site) { conns_[site].settle_waited_ms = 0; }

  // --- Coordinator surface (SocketWorld) --------------------------------

  /// Hooks into the process supervisor. `poll` reaps exits and executes due
  /// restarts (returns true when anything changed); `restart_pending` is
  /// true while a replacement process is scheduled or a site may still come
  /// back — it keeps Settle patient across real-time restart backoff.
  struct ExternalHooks {
    std::function<bool()> poll;
    std::function<bool()> restart_pending;
  };
  void set_hooks(ExternalHooks hooks) { hooks_ = std::move(hooks); }

  [[nodiscard]] const std::string& socket_path() const {
    return socket_path_;
  }
  /// The CollectorConfig shipped in every HelloAck (sites build their Site
  /// from it, so coordinator and site must agree on derived timeouts).
  void set_site_config(const CollectorConfig& config) {
    site_config_ = config;
  }

  /// Accepts handshakes until every site is connected (or the real-time
  /// budget runs out). Returns false on timeout.
  [[nodiscard]] bool WaitForAllConnected(int timeout_ms);

  /// Accepts pending connections (handshakes), absorbs owed late replies,
  /// and runs the supervisor poll hook. Called internally at every engine
  /// boundary; exposed so the world can pump between god-mode calls.
  /// Returns true when anything changed (Settle's patience resets).
  bool PollIo();

  /// Applies one god-mode operation on a remote site and replays the sends
  /// it staged. Returns false without applying when the site is down,
  /// paused, or goes dark mid-op (the owed late reply is then absorbed by
  /// PollIo like a step timeout's).
  [[nodiscard]] bool RunBuildOp(SiteId site, wire::BuildOpFrame op,
                                wire::BuildReplyFrame& out);

  /// Fetches a site's census. Returns false when the site is not currently
  /// answerable (down, paused, restart pending).
  [[nodiscard]] bool RunQuery(SiteId site, wire::QueryReplyFrame& out);

  /// Chaos: closes the coordinator end of the site's connection mid-run.
  /// The surviving process redials and reconnects at the same incarnation.
  void SeverConnection(SiteId site);

  /// Clean shutdown: sends Shutdown to every connected site and closes.
  void ShutdownAll();

  [[nodiscard]] const SocketCounters& socket_counters() const {
    return socket_counters_;
  }
  /// Incarnation currently registered for a site: the Network's, which
  /// each accepted restart handshake bumps.
  [[nodiscard]] std::uint32_t incarnation(SiteId site) const {
    return network_.incarnation(site);
  }
  [[nodiscard]] bool connected(SiteId site) const {
    return conns_[site].fd >= 0;
  }
  [[nodiscard]] bool responsive(SiteId site) const {
    return conns_[site].fd >= 0 && conns_[site].responsive;
  }

  /// Phase-alternation budget per timestep: a livelock guard.
  static constexpr std::uint64_t kMaxPhasesPerTimestep = 1'000'000;

 private:
  struct Conn {
    int fd = -1;
    bool seen_before = false;  // ever completed a handshake
    bool responsive = true;
    bool needs_resync = false;  // first step after a (re)connect
    /// Outstanding request the site owes a reply for (0 = none). Strictly
    /// one outstanding frame per site, so a paused process resumes into a
    /// clean request/reply cadence.
    std::uint64_t awaiting_seq = 0;
    wire::FrameType awaiting_type = wire::FrameType::kStepReply;
    /// How long Settle has waited on the owed reply; each new request
    /// starts it at 0.
    int settle_waited_ms = 0;
    /// Deliveries finished by the Network, awaiting shipment.
    std::vector<Envelope> outbound;
    /// Site's next pending timer instant from its last reply.
    SimTime cached_next = Scheduler::kNoPendingEvent;
    /// Peers whose recovery the site must be told about (queued by the
    /// coordinator's per-site Network recovery listener).
    std::vector<SiteId> recovered_pending;
    /// Peers that rejoined as a new incarnation; shipped in the next
    /// StepRequest so the site scrubs back traces the dead incarnation
    /// initiated (queued directly from the restart handshake — the
    /// fault-record path can miss restarts that heal within a sim instant).
    std::vector<SiteId> restarted_pending;
    /// Receive carry buffer: partial frames survive poll timeouts.
    std::vector<std::uint8_t> rx;
  };

  void BindListener();
  void AcceptPending();
  /// Reads the Hello off a fresh connection, classifies it, replies, and on
  /// acceptance installs the fd into the site's Conn.
  void CompleteHandshake(int fd);
  void InstallRecoveryListener(SiteId site);
  /// Queues "peer restarted" for `conn`'s next StepRequest (deduplicated: a
  /// peer flapping between two of the observer's steps is one notice).
  static void QueueRestartNotice(Conn& conn, SiteId peer);
  void Disconnect(Conn& conn, SiteId site);
  /// Takes the owed replies of resumed sites, each through AcceptReply.
  void AbsorbLateReplies();
  /// Checks a reply to `site`'s owed request, prompt or late: its frame
  /// type and seq, and, for a reply that carries staged sends, StagedValid.
  /// Then it records the site's next event, replays the sends and clears
  /// the debt. False changes nothing: the caller disconnects the site.
  template <class Reply>
  bool AcceptReply(SiteId site, wire::FrameType type,
                   const std::vector<std::uint8_t>& body, Reply& reply);
  /// One god-mode request (a build op or a query) to a responsive site:
  /// writes it and reads the reply within step_timeout_ms. A timeout
  /// pauses the site and leaves the reply owed to AbsorbLateReplies; a
  /// failed write, read or AcceptReply disconnects the site.
  template <class Request, class Reply>
  bool Exchange(SiteId site, wire::FrameType type, Request& request,
                wire::FrameType reply_type, Reply& reply);
  /// Zero-timeout poll over idle connections: surfaces kill -9 hangups the
  /// moment they happen instead of at the next request to that site.
  void DetectPeerFailures();

  [[nodiscard]] SimTime NextEventTime() const;
  void AdvanceWorldTo(SimTime t);
  /// Ships a StepRequest at time t (envelopes + FD state) to one site.
  void SendStepRequest(SiteId site, SimTime t);
  /// Pipelined collection: with a StepRequest already in flight to every
  /// involved site, polls all owed connections under ONE shared real-time
  /// deadline (step_timeout_ms for the whole wave — fair, since the
  /// requests fanned out together), draining readable fds without blocking
  /// so replies absorb as they land, in any arrival order. Decoded frames
  /// park in per-site slots; nothing touches the Network here.
  void CollectStepReplies();
  /// Applies the collected wave strictly in involved-site order — success
  /// (clear awaiting, cache next event, replay staged), protocol failure
  /// (Disconnect), or still-pending at the deadline (the site is paused,
  /// its owed reply absorbs late). Site-order replay keeps scheduler
  /// insertion order — and therefore verdicts and reclaim sets —
  /// independent of reply arrival order.
  void ResolveStepReplies();
  /// Replays a reply's staged sends into the Network, in call order.
  void ReplayStaged(std::vector<Envelope> staged);
  void SyncClocksTo(SimTime t);
  [[nodiscard]] std::vector<SiteId> SuspectedBy(SiteId site) const;
  /// True while any real-time external event may still produce simulated
  /// work: a pending restart, a disconnected-but-recoverable site, or an
  /// owed late reply with settle grace left.
  [[nodiscard]] bool ExternalProgressPossible() const;

  Scheduler& control_;
  Network network_;
  SocketConfig socket_config_;
  std::string socket_path_;
  int listen_fd_ = -1;
  CollectorConfig site_config_;
  ExternalHooks hooks_;
  std::vector<Conn> conns_;
  std::uint64_t next_seq_ = 1;
  SimTime global_now_ = 0;
  std::vector<SiteId> involved_;  // scratch for the phase loop

  /// Per-site outcome of a pipelined collection wave.
  enum class ReplySlot : std::uint8_t {
    kIdle,     // nothing owed (write failed before the wave)
    kPending,  // no complete reply by the shared deadline: paused
    kOk,       // decoded reply parked in reply_frames_
    kFailed,   // EOF / garbage / seq mismatch: disconnect
  };
  std::vector<ReplySlot> reply_state_;             // scratch, per site
  std::vector<wire::StepReplyFrame> reply_frames_; // scratch, per site

  SocketCounters socket_counters_;
};

}  // namespace dgc
