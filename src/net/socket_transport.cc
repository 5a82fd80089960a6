#include "net/socket_transport.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <type_traits>
#include <utility>
#include <variant>

#include "common/check.h"

namespace dgc {

using wire::FrameType;
using wire::IoStatus;

namespace {

/// True when every object `payload` names as its destination's own lives on
/// `to`. The handlers of these payloads check it with DGC_CHECK, so a
/// misaddressed one would end the destination's process.
bool NamesOnlyObjectsOf(SiteId to, const Payload& payload) {
  const auto on_to = [to](ObjectId ref) { return ref.site == to; };
  return std::visit(
      [&](const auto& m) {
        using M = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<M, InsertMsg> ||
                      std::is_same_v<M, BackRemoteCallMsg>) {
          return on_to(m.ref);
        } else if constexpr (std::is_same_v<M, MutatorReadMsg> ||
                             std::is_same_v<M, MutatorWriteMsg> ||
                             std::is_same_v<M, FetchMsg>) {
          return on_to(m.target);
        } else if constexpr (std::is_same_v<M, UpdateMsg>) {
          return std::all_of(m.entries.begin(), m.entries.end(),
                             [&](const UpdateEntry& e) { return on_to(e.ref); });
        } else if constexpr (std::is_same_v<M, CommitMsg>) {
          return std::all_of(
              m.writes.begin(), m.writes.end(),
              [&](const CommitWrite& w) { return on_to(w.target); });
        } else {
          return true;
        }
      },
      payload);
}

/// True when every staged send of `site`'s reply is from `site` to a site
/// that exists — what Network::Send requires, and what keeps one process
/// from sending as another past incarnation fencing — is of a kind a site
/// process handles (not baseline-only), and names as its destination's own
/// only objects that live there.
bool StagedValid(SiteId site, std::size_t site_count,
                 const std::vector<Envelope>& staged) {
  return std::all_of(staged.begin(), staged.end(), [&](const Envelope& env) {
    return env.from == site && env.to < site_count &&
           !IsBaselineOnly(env.payload) &&
           NamesOnlyObjectsOf(env.to, env.payload);
  });
}

}  // namespace

SocketTransport::SocketTransport(std::size_t site_count, Scheduler& control,
                                 NetworkConfig config, Rng rng,
                                 std::string socket_path)
    : control_(control),
      network_(control, config, rng),
      socket_config_(config.socket),
      socket_path_(std::move(socket_path)) {
  DGC_CHECK(site_count > 0);
  conns_.resize(site_count);
  for (SiteId s = 0; s < site_count; ++s) {
    // Placeholder handler: the Network's delivery path insists every
    // destination is registered, but the dispatcher below intercepts every
    // finished delivery before a handler would run.
    network_.RegisterSite(s, [](const Envelope&) {});
    InstallRecoveryListener(s);
  }
  network_.set_dispatcher([this](Envelope&& envelope) {
    DGC_CHECK(envelope.to < conns_.size());
    conns_[envelope.to].outbound.push_back(std::move(envelope));
  });
  BindListener();
}

SocketTransport::~SocketTransport() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
    conn.fd = -1;
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  unlink(socket_path_.c_str());
}

void SocketTransport::BindListener() {
  listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
  DGC_CHECK_MSG(listen_fd_ >= 0, "socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DGC_CHECK_MSG(socket_path_.size() < sizeof addr.sun_path,
                "socket path too long: " << socket_path_);
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  unlink(socket_path_.c_str());
  DGC_CHECK_MSG(bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr) == 0,
                "bind(" << socket_path_ << ") failed");
  DGC_CHECK_MSG(listen(listen_fd_, 64) == 0, "listen failed");
  // Non-blocking accepts let the engine poll for redials at its own pace;
  // accepted connections stay blocking (frame I/O uses poll timeouts).
  const int flags = fcntl(listen_fd_, F_GETFL, 0);
  fcntl(listen_fd_, F_SETFL, flags | O_NONBLOCK);
}

void SocketTransport::InstallRecoveryListener(SiteId site) {
  network_.SetRecoveryListener(site, [this, site](SiteId peer, bool restarted) {
    conns_[site].recovered_pending.push_back(peer);
    if (restarted) QueueRestartNotice(conns_[site], peer);
  });
}

void SocketTransport::QueueRestartNotice(Conn& conn, SiteId peer) {
  if (std::find(conn.restarted_pending.begin(), conn.restarted_pending.end(),
                peer) == conn.restarted_pending.end()) {
    conn.restarted_pending.push_back(peer);
  }
}

// ---------------------------------------------------------------------------
// Connection management.

void SocketTransport::AcceptPending() {
  for (;;) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / EWOULDBLOCK: nothing pending
    CompleteHandshake(fd);
  }
}

void SocketTransport::CompleteHandshake(int fd) {
  FrameType type = FrameType::kHello;
  std::vector<std::uint8_t> carry;  // a dialer sends nothing past its Hello
  std::vector<std::uint8_t> body;
  // A dialing site writes its Hello immediately; a short bounded read keeps
  // a wedged dialer from stalling the engine.
  if (wire::ReadFrameBuffered(fd, /*timeout_ms=*/1000, carry, type, body) !=
          IoStatus::kOk ||
      type != FrameType::kHello) {
    ++socket_counters_.handshakes_rejected;
    close(fd);
    return;
  }
  wire::HelloFrame hello;
  if (!wire::DecodeBody(body, hello)) {
    ++socket_counters_.handshakes_rejected;
    close(fd);
    return;
  }
  const bool known = hello.site < conns_.size();
  const wire::HandshakeVerdict verdict = wire::EvaluateHandshake(
      hello, conns_.size(), network_.incarnation(hello.site),
      known && conns_[hello.site].seen_before);

  wire::HelloAckFrame ack;
  ack.verdict = verdict;
  ack.site_count = static_cast<std::uint32_t>(conns_.size());
  ack.now = global_now_;
  ack.failure_detection_enabled = network_.failure_detection_enabled();
  ack.config = site_config_;
  const IoStatus wrote =
      wire::WriteFrame(fd, FrameType::kHelloAck, wire::EncodeBody(ack));

  if (!wire::HandshakeAccepted(verdict) || wrote != IoStatus::kOk) {
    ++socket_counters_.handshakes_rejected;
    close(fd);
    return;
  }

  Conn& conn = conns_[hello.site];
  if (conn.fd >= 0) close(conn.fd);  // stale link superseded by the redial
  conn.fd = fd;
  conn.seen_before = true;
  conn.responsive = true;
  conn.needs_resync = true;
  conn.awaiting_seq = 0;
  conn.rx.clear();
  conn.cached_next = Scheduler::kNoPendingEvent;
  ++socket_counters_.handshakes_accepted;

  switch (verdict) {
    case wire::HandshakeVerdict::kAcceptNew:
      break;
    case wire::HandshakeVerdict::kAcceptReconnect:
      // Same process, new socket: everything in flight is still valid.
      ++socket_counters_.reconnects;
      break;
    case wire::HandshakeVerdict::kAcceptRestart:
      // A replacement process. Deliveries addressed to the dead incarnation
      // died with it; the Network fences its stale traffic and dead-letters
      // its channels, bumps its incarnation to the one the handshake
      // accepted, and forgets its recovery listener (re-armed here for the
      // new incarnation).
      conn.outbound.clear();
      conn.recovered_pending.clear();
      // Pending notices were addressed to the dead incarnation; the
      // replacement restored from a snapshot and holds no volatile trace
      // state that a restart notice could scrub.
      conn.restarted_pending.clear();
      network_.NoteSiteRestarted(hello.site);
      InstallRecoveryListener(hello.site);
      // Tell every surviving site directly that this peer is a replacement.
      // The Network's fault-record path carries the same fact only when the
      // outage spanned enough *sim* time to be detected — a kill-to-redial
      // that completes within one simulated instant (the common case here:
      // restarts run on the real-time supervisor clock) would never be
      // reported, leaving survivors to wait out report_timeout before the
      // dead incarnation's traces drop their visit records.
      for (SiteId s = 0; s < conns_.size(); ++s) {
        if (s != hello.site && conns_[s].seen_before) {
          QueueRestartNotice(conns_[s], hello.site);
        }
      }
      ++socket_counters_.restarts_accepted;
      break;
    default:
      DGC_CHECK(false);
  }
  network_.SetSiteDown(hello.site, false);
}

void SocketTransport::Disconnect(Conn& conn, SiteId site) {
  if (conn.fd >= 0) close(conn.fd);
  conn.fd = -1;
  conn.rx.clear();
  conn.awaiting_seq = 0;
  conn.responsive = false;
  ++socket_counters_.disconnects;
  // Keep `outbound`: a severed-but-alive process reconnects at the same
  // incarnation and should still receive it; a genuine restart clears it in
  // CompleteHandshake. Mark the site down meanwhile so the heartbeat /
  // suspicion machinery sees the outage.
  network_.SetSiteDown(site, true);
}

void SocketTransport::AbsorbLateReplies() {
  for (SiteId s = 0; s < conns_.size(); ++s) {
    Conn& conn = conns_[s];
    if (conn.fd < 0 || conn.awaiting_seq == 0 || conn.responsive) continue;
    FrameType type = FrameType::kStepReply;
    std::vector<std::uint8_t> body;
    const IoStatus status =
        wire::ReadFrameBuffered(conn.fd, /*timeout_ms=*/0, conn.rx, type,
                                body);
    if (status == IoStatus::kTimeout) continue;  // still dark
    // The owed reply finally arrived (the process was resumed). Its staged
    // sends enter the Network now — from the world's point of view the
    // paused site's work happens late, which is exactly what a stalled
    // process looks like to its peers.
    wire::StepReplyFrame step;
    wire::BuildReplyFrame build;
    wire::QueryReplyFrame query;
    const bool ok =
        status == IoStatus::kOk &&
        (conn.awaiting_type == FrameType::kStepReply
             ? AcceptReply(s, type, body, step)
         : conn.awaiting_type == FrameType::kBuildReply
             ? AcceptReply(s, type, body, build)
             : AcceptReply(s, type, body, query));
    if (!ok) {
      Disconnect(conn, s);
      continue;
    }
    conn.responsive = true;
    ++socket_counters_.late_replies;
    network_.SetSiteDown(s, false);
  }
}

template <class Reply>
bool SocketTransport::AcceptReply(SiteId site, FrameType type,
                                  const std::vector<std::uint8_t>& body,
                                  Reply& reply) {
  Conn& conn = conns_[site];
  if (type != conn.awaiting_type || !wire::DecodeBody(body, reply) ||
      reply.seq != conn.awaiting_seq) {
    return false;
  }
  if constexpr (!std::is_same_v<Reply, wire::QueryReplyFrame>) {
    if (!StagedValid(site, conns_.size(), reply.staged)) return false;
    conn.cached_next = reply.next_event_time;
    ReplayStaged(std::move(reply.staged));
  }
  conn.awaiting_seq = 0;
  return true;
}

void SocketTransport::DetectPeerFailures() {
  // A site that owes us nothing is never read by the engine, so a kill -9
  // between steps would otherwise go unnoticed until the next request.
  // A zero-timeout poll surfaces the hangup immediately, which flips the
  // site to disconnected and keeps Settle patient while the supervisor
  // arranges the replacement. (Awaiting conns are AbsorbLateReplies' job.)
  for (SiteId s = 0; s < conns_.size(); ++s) {
    Conn& conn = conns_[s];
    if (conn.fd < 0 || conn.awaiting_seq != 0) continue;
    pollfd p{conn.fd, POLLIN, 0};
    if (poll(&p, 1, 0) <= 0) continue;
    if ((p.revents & (POLLHUP | POLLERR)) != 0) {
      Disconnect(conn, s);
      continue;
    }
    if ((p.revents & POLLIN) == 0) continue;
    // Readable while nothing is owed: either EOF (dead peer) or a protocol
    // violation; a zero-timeout read distinguishes a partial frame (left in
    // the carry) from either.
    FrameType type = FrameType::kHello;
    std::vector<std::uint8_t> body;
    const IoStatus status =
        wire::ReadFrameBuffered(conn.fd, /*timeout_ms=*/0, conn.rx, type,
                                body);
    if (status == IoStatus::kTimeout) continue;  // partial frame, keep
    Disconnect(conn, s);  // EOF, or an unsolicited frame — both fatal
  }
}

bool SocketTransport::PollIo() {
  const std::uint64_t accepted = socket_counters_.handshakes_accepted;
  const std::uint64_t late = socket_counters_.late_replies;
  const std::uint64_t dropped = socket_counters_.disconnects;
  AcceptPending();
  AbsorbLateReplies();
  DetectPeerFailures();
  bool changed = socket_counters_.handshakes_accepted != accepted ||
                 socket_counters_.late_replies != late ||
                 socket_counters_.disconnects != dropped;
  if (hooks_.poll && hooks_.poll()) changed = true;
  return changed;
}

bool SocketTransport::WaitForAllConnected(int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    PollIo();
    const bool all = std::all_of(conns_.begin(), conns_.end(),
                                 [](const Conn& c) { return c.fd >= 0; });
    if (all) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------------
// Engine.

std::vector<SiteId> SocketTransport::SuspectedBy(SiteId site) const {
  std::vector<SiteId> suspected;
  if (!network_.failure_detection_enabled()) return suspected;
  for (SiteId peer = 0; peer < conns_.size(); ++peer) {
    if (peer != site && network_.IsPeerSuspected(site, peer)) {
      suspected.push_back(peer);
    }
  }
  return suspected;
}

SimTime SocketTransport::NextEventTime() const {
  SimTime next = control_.next_event_time();
  for (const Conn& conn : conns_) {
    // Down or paused sites cannot act; their timers resume mattering when
    // the process rejoins (PollIo marks them responsive again).
    if (conn.fd < 0 || !conn.responsive || conn.awaiting_seq != 0) continue;
    if (conn.needs_resync || !conn.outbound.empty()) {
      next = std::min(next, global_now_);
    } else {
      next = std::min(next, conn.cached_next);
    }
  }
  return next;
}

void SocketTransport::SendStepRequest(SiteId site, SimTime t) {
  Conn& conn = conns_[site];
  wire::StepRequestFrame req;
  req.seq = next_seq_++;
  req.target_time = t;
  req.suspected = SuspectedBy(site);
  req.recovered = std::move(conn.recovered_pending);
  conn.recovered_pending.clear();
  req.restarted = std::move(conn.restarted_pending);
  conn.restarted_pending.clear();
  req.envelopes = std::move(conn.outbound);
  conn.outbound.clear();

  if (wire::WriteFrame(conn.fd, FrameType::kStepRequest,
                       wire::EncodeBody(req)) != IoStatus::kOk) {
    // Link died as we wrote. Re-queue the deliveries for after the redial
    // (a restarting site drops them in CompleteHandshake anyway).
    conn.outbound = std::move(req.envelopes);
    conn.recovered_pending = std::move(req.recovered);
    conn.restarted_pending = std::move(req.restarted);
    Disconnect(conn, site);
    return;
  }
  if (conn.needs_resync) {
    conn.needs_resync = false;
    ++socket_counters_.resync_steps;
  }
  conn.awaiting_seq = req.seq;
  conn.awaiting_type = FrameType::kStepReply;
  conn.settle_waited_ms = 0;
  ++socket_counters_.step_requests;
}

void SocketTransport::ReplayStaged(std::vector<Envelope> staged) {
  for (Envelope& env : staged) {
    network_.Send(env.from, env.to, std::move(env.payload));
  }
}

void SocketTransport::CollectStepReplies() {
  reply_state_.assign(conns_.size(), ReplySlot::kIdle);
  reply_frames_.resize(conns_.size());
  std::vector<SiteId> pending;
  pending.reserve(involved_.size());
  for (SiteId s : involved_) {
    const Conn& conn = conns_[s];
    if (conn.fd >= 0 && conn.awaiting_seq != 0) {
      reply_state_[s] = ReplySlot::kPending;
      pending.push_back(s);
    }
  }
  // One deadline for the whole wave: every request is already in flight, so
  // each site gets the full step_timeout_ms of real computing time.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(socket_config_.step_timeout_ms);
  std::vector<pollfd> pfds;
  while (!pending.empty()) {
    // Drain pass, non-blocking: complete frames (including any already
    // sitting in a carry buffer) decode now; partial frames stay pending
    // with their bytes kept in the carry.
    for (std::size_t i = 0; i < pending.size();) {
      const SiteId s = pending[i];
      Conn& conn = conns_[s];
      FrameType type = FrameType::kStepReply;
      std::vector<std::uint8_t> body;
      const IoStatus status = wire::ReadFrameBuffered(
          conn.fd, /*timeout_ms=*/0, conn.rx, type, body);
      if (status == IoStatus::kTimeout) {
        ++i;
        continue;
      }
      const bool ok = status == IoStatus::kOk &&
                      type == FrameType::kStepReply &&
                      wire::DecodeBody(body, reply_frames_[s]) &&
                      reply_frames_[s].seq == conn.awaiting_seq &&
                      StagedValid(s, conns_.size(), reply_frames_[s].staged);
      reply_state_[s] = ok ? ReplySlot::kOk : ReplySlot::kFailed;
      pending[i] = pending.back();
      pending.pop_back();
    }
    if (pending.empty()) break;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    const int wait = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count() +
        1);
    pfds.clear();
    for (SiteId s : pending) pfds.push_back({conns_[s].fd, POLLIN, 0});
    const int rc = poll(pfds.data(), static_cast<nfds_t>(pfds.size()), wait);
    if (rc < 0 && errno != EINTR) break;
  }
  // Whatever is still pending missed the shared deadline; ResolveStepReplies
  // marks it paused.
}

void SocketTransport::ResolveStepReplies() {
  for (SiteId s : involved_) {
    Conn& conn = conns_[s];
    switch (reply_state_[s]) {
      case ReplySlot::kIdle:
        break;
      case ReplySlot::kOk:
        conn.awaiting_seq = 0;
        conn.cached_next = reply_frames_[s].next_event_time;
        ReplayStaged(std::move(reply_frames_[s].staged));
        break;
      case ReplySlot::kFailed:
        Disconnect(conn, s);
        break;
      case ReplySlot::kPending:
        // Timed out: the process is dark but (as far as we know) alive.
        // Leave the request outstanding for AbsorbLateReplies; the failure
        // detector sees the site down.
        ++socket_counters_.step_timeouts;
        conn.responsive = false;
        network_.SetSiteDown(s, true);
        break;
    }
    reply_frames_[s] = wire::StepReplyFrame{};  // release envelope buffers
  }
}

void SocketTransport::AdvanceWorldTo(SimTime t) {
  DGC_CHECK(t >= global_now_);
  global_now_ = t;
  std::uint64_t phases_this_step = 0;
  for (;;) {
    // Control phase: deliveries (into outbound buffers via the dispatcher),
    // retransmit timers, fault-plan hooks.
    control_.RunUntil(t);

    involved_.clear();
    for (SiteId s = 0; s < conns_.size(); ++s) {
      const Conn& conn = conns_[s];
      if (conn.fd < 0 || !conn.responsive || conn.awaiting_seq != 0) continue;
      if (conn.needs_resync || !conn.outbound.empty() ||
          conn.cached_next <= t) {
        involved_.push_back(s);
      }
    }
    if (involved_.empty()) break;  // quiescent at t

    DGC_CHECK_MSG(++phases_this_step <= kMaxPhasesPerTimestep,
                  "transport livelock: " << phases_this_step
                                         << " phases at t=" << t);

    // Fan the requests out first (sites compute concurrently for real),
    // collect the replies in arrival order, and apply them in involved-site
    // order: the order staged sends enter the Network is fixed, whatever
    // order the replies arrive in.
    for (SiteId s : involved_) SendStepRequest(s, t);
    CollectStepReplies();
    ResolveStepReplies();
  }
}

void SocketTransport::SyncClocksTo(SimTime t) {
  control_.RunUntil(t);
  global_now_ = t;
  // Site clocks catch up from the next frame each receives (step, build, or
  // query frames all carry the instant).
}

void SocketTransport::RunUntilTime(SimTime t) {
  DGC_CHECK(t >= global_now_);
  for (;;) {
    PollIo();
    const SimTime next = NextEventTime();
    if (next > t) break;  // covers kNoPendingEvent
    AdvanceWorldTo(std::max(next, global_now_));
  }
  SyncClocksTo(t);
}

bool SocketTransport::ExternalProgressPossible() const {
  for (const Conn& conn : conns_) {
    if (conn.fd < 0) return true;  // a redial or restart may arrive
    if (conn.awaiting_seq != 0 && !conn.responsive &&
        conn.settle_waited_ms < socket_config_.settle_grace_ms) {
      return true;  // owed, with grace left
    }
  }
  if (hooks_.restart_pending && hooks_.restart_pending()) return true;
  return false;
}

void SocketTransport::Settle() {
  // Simulated work first; when the visible world is idle, grant bounded
  // real time for external progress — supervisor restart backoff, a paused
  // process resuming, a severed process redialing. Any observed progress
  // resets the patience. An owed reply's own wait is not reset: once its
  // grace is spent, a paused site no longer holds a Settle up.
  int waited_ms = 0;
  while (true) {
    const bool changed = PollIo();
    if (changed) waited_ms = 0;
    const SimTime next = NextEventTime();
    if (next != Scheduler::kNoPendingEvent) {
      AdvanceWorldTo(std::max(next, global_now_));
      waited_ms = 0;
      continue;
    }
    if (!ExternalProgressPossible()) break;
    if (waited_ms >= socket_config_.settle_grace_ms) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    waited_ms += 2;
    for (Conn& conn : conns_) {
      if (conn.awaiting_seq != 0 && !conn.responsive) {
        conn.settle_waited_ms += 2;
      }
    }
  }
  SyncClocksTo(global_now_);
}

// ---------------------------------------------------------------------------
// God-mode operations (SocketWorld).

template <class Request, class Reply>
bool SocketTransport::Exchange(SiteId site, FrameType type, Request& request,
                               FrameType reply_type, Reply& reply) {
  PollIo();
  Conn& conn = conns_[site];
  if (conn.fd < 0 || !conn.responsive || conn.awaiting_seq != 0) return false;
  request.seq = next_seq_++;
  request.time = global_now_;
  if (wire::WriteFrame(conn.fd, type, wire::EncodeBody(request)) !=
      IoStatus::kOk) {
    Disconnect(conn, site);
    return false;
  }
  conn.awaiting_seq = request.seq;
  conn.awaiting_type = reply_type;
  conn.settle_waited_ms = 0;
  FrameType got = reply_type;
  std::vector<std::uint8_t> body;
  const IoStatus status = wire::ReadFrameBuffered(
      conn.fd, socket_config_.step_timeout_ms, conn.rx, got, body);
  if (status == IoStatus::kTimeout) {
    // The process went dark mid-request (SIGSTOP chaos). Same handling as a
    // step timeout: mark it paused and keep the reply owed;
    // AbsorbLateReplies accepts it whenever the process resumes.
    ++socket_counters_.step_timeouts;
    conn.responsive = false;
    network_.SetSiteDown(site, true);
    return false;
  }
  if (status != IoStatus::kOk || !AcceptReply(site, got, body, reply)) {
    Disconnect(conn, site);
    return false;
  }
  return true;
}

bool SocketTransport::RunBuildOp(SiteId site, wire::BuildOpFrame op,
                                 wire::BuildReplyFrame& out) {
  if (!Exchange(site, FrameType::kBuildOp, op, FrameType::kBuildReply, out)) {
    return false;
  }
  ++socket_counters_.build_ops;
  return true;
}

bool SocketTransport::RunQuery(SiteId site, wire::QueryReplyFrame& out) {
  wire::QueryFrame query;
  if (!Exchange(site, FrameType::kQuery, query, FrameType::kQueryReply, out)) {
    return false;
  }
  ++socket_counters_.queries;
  return true;
}

void SocketTransport::SeverConnection(SiteId site) {
  DGC_CHECK(site < conns_.size());
  Conn& conn = conns_[site];
  if (conn.fd < 0) return;
  ++socket_counters_.severed;
  Disconnect(conn, site);
}

void SocketTransport::ShutdownAll() {
  for (SiteId s = 0; s < conns_.size(); ++s) {
    Conn& conn = conns_[s];
    if (conn.fd < 0) continue;
    if (wire::WriteFrame(conn.fd, FrameType::kShutdown, {}) == IoStatus::kOk) {
      FrameType type = FrameType::kShutdownAck;
      std::vector<std::uint8_t> body;
      (void)wire::ReadFrameBuffered(conn.fd, /*timeout_ms=*/500, conn.rx,
                                    type, body);
    }
    close(conn.fd);
    conn.fd = -1;
  }
}

}  // namespace dgc
