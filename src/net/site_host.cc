#include "net/site_host.h"

#include <stdio.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include "core/site.h"
#include "refs/tables.h"

namespace dgc {
namespace {

using wire::FrameType;
using wire::IoStatus;
using wire::WireReader;
using wire::WireWriter;

/// Snapshot file magic ("DGCS") and version, distinct from the socket
/// protocol's so a snapshot can never be mistaken for a frame.
constexpr std::uint32_t kSnapshotMagic = 0x44474353;
constexpr std::uint16_t kSnapshotVersion = 3;

}  // namespace

// ---------------------------------------------------------------------------
// Snapshot capture / apply.

SiteSnapshot CaptureSiteSnapshot(const Site& site, std::uint32_t incarnation) {
  return SiteSnapshot{site.id(), incarnation, site.heap().CaptureImage(),
                      site.tables().inrefs(), site.tables().outrefs(),
                      site.back_info().inref_outsets};
}

void ApplySiteSnapshot(Site& site, const SiteSnapshot& snapshot) {
  DGC_CHECK(snapshot.site == site.id());
  site.heap().RestoreImage(snapshot.heap);
  site.tables().inrefs() = snapshot.inrefs;
  site.tables().outrefs() = snapshot.outrefs;
  for (auto& [ref, entry] : site.tables().outrefs()) {
    entry.pin_count = 0;  // pins are volatile; the crash released them
  }
  site.RestoreBackInfo(snapshot.inref_outsets);
}

// ---------------------------------------------------------------------------
// Snapshot codec: the wire codec over these field lists and the ref table
// entries' (see net/wire.h, refs/tables.h), behind a magic and version
// header. Every count is guarded and trailing bytes are rejected, because a
// half-written or stale file must fail cleanly, not crash the replacement
// process.

auto Fields(Is<HeapImage::SlotImage> auto& s) {
  return std::tie(s.generation, s.live, s.slots);
}
auto Fields(Is<HeapStats> auto& s) {
  return std::tie(s.allocated, s.reclaimed);
}
auto Fields(Is<HeapImage> auto& h) {
  return std::tie(h.slots, h.free_slots, h.persistent_roots, h.stats);
}
auto Fields(Is<SiteSnapshot> auto& s) {
  return std::tie(s.site, s.incarnation, s.heap, s.inrefs, s.outrefs,
                  s.inref_outsets);
}

namespace {

/// The checks ApplySiteSnapshot and the next local trace need beyond
/// well-formed bytes. A flagged inref may outlive its object: the sweep
/// frees the object, and the entry stays until every source reports the
/// reference dropped. A live object's references must not: a local one
/// names a live object, a remote one has an outref.
bool Restorable(const SiteSnapshot& s) {
  if (!s.heap.Restorable(s.site)) return false;
  for (const auto& [ref, in] : s.inrefs) {
    if (ref.site != s.site) return false;
    if (!in.garbage_flagged && !s.heap.Holds(s.site, ref)) return false;
    if (in.sources.contains(s.site)) return false;
  }
  for (const auto& [ref, out] : s.outrefs) {
    if (!ref.valid() || ref.site == s.site) return false;
  }
  for (const HeapImage::SlotImage& object : s.heap.slots) {
    for (const ObjectId ref : object.slots) {
      if (!ref.valid()) continue;
      if (ref.site == s.site ? !s.heap.Holds(s.site, ref)
                             : !s.outrefs.contains(ref)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

std::vector<std::uint8_t> EncodeSiteSnapshot(const SiteSnapshot& snapshot) {
  WireWriter w;
  wire::Encode(w, kSnapshotMagic);
  wire::Encode(w, kSnapshotVersion);
  wire::Encode(w, snapshot);
  return w.take();
}

bool DecodeSiteSnapshot(const std::vector<std::uint8_t>& bytes,
                        SiteSnapshot& out) {
  WireReader r(bytes);
  std::uint32_t magic = 0;
  std::uint16_t version = 0;
  return wire::Decode(r, magic) && magic == kSnapshotMagic &&
         wire::Decode(r, version) && version == kSnapshotVersion &&
         wire::Decode(r, out) && r.exhausted() && Restorable(out);
}

bool WriteSnapshotFile(const std::string& path, const SiteSnapshot& snapshot) {
  const std::vector<std::uint8_t> bytes = EncodeSiteSnapshot(snapshot);
  const std::string tmp = path + ".tmp";
  FILE* f = fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      bytes.empty() || fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  // No fsync: the failure model is PROCESS death (kill -9), which the page
  // cache survives. The write-temp-then-rename keeps the snapshot atomic;
  // durability across host crashes is out of scope and fsync-per-step on a
  // disk-backed state dir would dominate step latency.
  const bool flushed = fflush(f) == 0;
  fclose(f);
  if (!wrote || !flushed) {
    remove(tmp.c_str());
    return false;
  }
  return rename(tmp.c_str(), path.c_str()) == 0;
}

bool ReadSnapshotFile(const std::string& path, SiteSnapshot& out) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[64 * 1024];
  std::size_t n = 0;
  while ((n = fread(chunk, 1, sizeof chunk, f)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + n);
  }
  fclose(f);
  return DecodeSiteSnapshot(bytes, out);
}

// ---------------------------------------------------------------------------
// Process main loop.

namespace {

int DialOnce(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    close(fd);
    return -1;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    close(fd);
    return -1;
  }
  return fd;
}

/// Retries the dial until the budget elapses — the coordinator may still be
/// binding (first start) or busy accepting other sites (restart storm).
int DialWithRetry(const SiteHostOptions& options) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options.dial_timeout_ms);
  for (;;) {
    const int fd = DialOnce(options.socket_path);
    if (fd >= 0) return fd;
    if (std::chrono::steady_clock::now() >= deadline) return -1;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(options.dial_retry_ms));
  }
}

/// Sends the Hello and reads the ack. Returns false on any transport or
/// protocol failure; `ack` is valid (with a possibly rejecting verdict)
/// only on true. `carry` is the connection's persistent receive buffer:
/// the coordinator pipelines the first request right behind the HelloAck,
/// so one recv may pull both frames — the surplus must survive this call.
bool PerformHandshake(int fd, SiteId site, std::uint32_t incarnation,
                      const SiteHostOptions& options,
                      std::vector<std::uint8_t>& carry,
                      wire::HelloAckFrame& ack) {
  wire::HelloFrame hello;
  hello.site = site;
  hello.incarnation = incarnation;
  if (wire::WriteFrame(fd, FrameType::kHello, wire::EncodeBody(hello)) !=
      IoStatus::kOk) {
    return false;
  }
  FrameType type = FrameType::kHello;
  std::vector<std::uint8_t> body;
  if (wire::ReadFrameBuffered(fd, options.dial_timeout_ms, carry, type,
                              body) != IoStatus::kOk ||
      type != FrameType::kHelloAck) {
    return false;
  }
  return wire::DecodeBody(body, ack);
}

}  // namespace

int RunSiteProcess(const SiteHostOptions& options) {
  DGC_CHECK(options.site != kInvalidSite);
  // The coordinator may vanish mid-write (severed socket chaos, coordinator
  // crash); that must surface as EPIPE, not kill this process.
  std::signal(SIGPIPE, SIG_IGN);

  // A replacement process finds its predecessor's snapshot and runs as the
  // next incarnation; a first-start finds nothing and runs as incarnation 0.
  std::uint32_t incarnation = 0;
  SiteSnapshot snapshot;
  bool have_snapshot = false;
  if (!options.snapshot_path.empty() &&
      ReadSnapshotFile(options.snapshot_path, snapshot) &&
      snapshot.site == options.site) {
    have_snapshot = true;
    incarnation = snapshot.incarnation + 1;
  }

  int fd = DialWithRetry(options);
  if (fd < 0) return 2;
  // Receive carry buffer for the life of each connection: frames the kernel
  // hands us together with an earlier frame's bytes wait here. Reset on
  // redial — a new connection is a new stream.
  std::vector<std::uint8_t> carry;
  wire::HelloAckFrame ack;
  if (!PerformHandshake(fd, options.site, incarnation, options, carry, ack)) {
    close(fd);
    return 3;
  }
  if (!wire::HandshakeAccepted(ack.verdict)) {
    close(fd);
    return 3;
  }

  SiteAgentTransport agent(options.site, ack.failure_detection_enabled);
  Site site(options.site, agent, ack.config);
  if (have_snapshot) {
    ApplySiteSnapshot(site, snapshot);
    // The tail of Site::CrashRestart: stage the re-registration InsertMsgs.
    // They ride to the coordinator in the first reply after the handshake
    // (which issues a resync step to every newly accepted connection).
    site.ReannounceOutrefs();
  }
  // Catch the site clock up to the coordinator (a restart joins mid-run).
  // Constructor-scheduled periodic timers fire compressed into this catch-up;
  // their sends are staged like any others.
  agent.RunUntilTime(ack.now);

  const auto maybe_snapshot = [&] {
    if (options.snapshot_path.empty() || !options.snapshot_each_step) return;
    // Failure to persist is not fatal to the running site; the next crash
    // simply restores an older image and re-announces from further back.
    (void)WriteSnapshotFile(options.snapshot_path,
                            CaptureSiteSnapshot(site, incarnation));
  };
  if (have_snapshot) maybe_snapshot();  // persist the new incarnation

  for (;;) {
    FrameType type = FrameType::kHello;
    std::vector<std::uint8_t> body;
    const IoStatus status =
        wire::ReadFrameBuffered(fd, /*timeout_ms=*/-1, carry, type, body);
    if (status == IoStatus::kClosed) {
      // Severed socket: the process (and its state) survives; redial at the
      // SAME incarnation so the coordinator classifies a reconnect, not a
      // restart. Unsent staged traffic is retained and ships after resync.
      close(fd);
      carry.clear();
      fd = DialWithRetry(options);
      if (fd < 0) return 2;
      if (!PerformHandshake(fd, options.site, incarnation, options, carry,
                            ack) ||
          !wire::HandshakeAccepted(ack.verdict)) {
        close(fd);
        return 3;
      }
      continue;
    }
    if (status != IoStatus::kOk) {
      close(fd);
      return 4;
    }
    switch (type) {
      case FrameType::kStepRequest: {
        wire::StepRequestFrame req;
        if (!wire::DecodeBody(body, req)) {
          close(fd);
          return 4;
        }
        agent.SetSuspected(std::move(req.suspected));
        // Restart notices first: a peer in both lists must scrub the dead
        // incarnation's traces before parked calls resume toward it.
        for (SiteId peer : req.restarted) {
          agent.NotifyRecovered(peer, /*restarted=*/true);
        }
        for (SiteId peer : req.recovered) {
          agent.NotifyRecovered(peer, /*restarted=*/false);
        }
        // One site step: own timers first, then the delivered envelopes,
        // then anything the handlers scheduled at <= t.
        agent.RunUntilTime(req.target_time);
        for (const Envelope& env : req.envelopes) agent.Deliver(env);
        agent.RunUntilTime(req.target_time);

        wire::StepReplyFrame reply;
        reply.seq = req.seq;
        reply.next_event_time = agent.scheduler().next_event_time();
        reply.handled = req.envelopes.size();
        reply.staged = agent.TakeStaged();
        // Persist BEFORE acknowledging: once the reply is on the wire the
        // coordinator treats the step as done (delivered envelopes are
        // forgotten), so a kill -9 in an ack-then-persist gap would strand
        // state the rest of the world believes exists. Dying after the
        // snapshot but before the reply is safe — the coordinator times the
        // step out and resyncs the replacement from the post-step image.
        maybe_snapshot();
        if (wire::WriteFrame(fd, FrameType::kStepReply,
                             wire::EncodeBody(reply)) != IoStatus::kOk) {
          // Severed mid-step: keep the sends for the post-reconnect resync
          // reply; the read at the top of the loop observes the close.
          agent.Restage(std::move(reply.staged));
          break;
        }
        break;
      }
      case FrameType::kBuildOp: {
        wire::BuildOpFrame op;
        if (!wire::DecodeBody(body, op)) {
          close(fd);
          return 4;
        }
        agent.RunUntilTime(op.time);
        ObjectId result = kInvalidObject;
        switch (op.op) {
          case wire::BuildOpKind::kNewObject:
            result = site.heap().Allocate(static_cast<std::size_t>(op.n));
            break;
          case wire::BuildOpKind::kSetRoot:
            site.heap().AddPersistentRoot(op.a);
            break;
          case wire::BuildOpKind::kWireLocal:
          case wire::BuildOpKind::kWireSource:
            site.WireSource(op.a, op.slot, op.b);
            break;
          case wire::BuildOpKind::kWireTarget:
            // Local object b gains source site a.site (a's index is unused).
            site.WireTarget(op.b, op.a.site);
            break;
          case wire::BuildOpKind::kUnwire:
            site.heap().SetSlot(op.a, op.slot, kInvalidObject);
            break;
          case wire::BuildOpKind::kStartTrace:
            if (!site.trace_in_flight()) site.StartLocalTrace();
            break;
        }
        wire::BuildReplyFrame reply;
        reply.seq = op.seq;
        reply.result = result;
        reply.next_event_time = agent.scheduler().next_event_time();
        reply.staged = agent.TakeStaged();
        // Persist-then-ack, as in the step path: an acknowledged mutation
        // (an Unwire severing a cycle, say) must survive a kill -9 landing
        // right after the ack — the driver will never reissue it.
        maybe_snapshot();
        if (wire::WriteFrame(fd, FrameType::kBuildReply,
                             wire::EncodeBody(reply)) != IoStatus::kOk) {
          agent.Restage(std::move(reply.staged));
          break;
        }
        break;
      }
      case FrameType::kQuery: {
        wire::QueryFrame query;
        if (!wire::DecodeBody(body, query)) {
          close(fd);
          return 4;
        }
        agent.RunUntilTime(query.time);
        wire::QueryReplyFrame reply;
        reply.seq = query.seq;
        site.heap().ForEach([&](ObjectId id, const Object& /*object*/) {
          reply.survivors.push_back(id);
        });
        std::sort(reply.survivors.begin(), reply.survivors.end());
        reply.objects = reply.survivors.size();
        reply.reclaimed = site.heap().stats().reclaimed;
        const BackTracerStats& stats = site.back_tracer().stats();
        reply.traces_started = stats.traces_started;
        reply.traces_garbage = stats.traces_completed_garbage;
        reply.traces_live = stats.traces_completed_live;
        reply.trace_in_flight = site.trace_in_flight();
        reply.incarnation = incarnation;
        (void)wire::WriteFrame(fd, FrameType::kQueryReply,
                               wire::EncodeBody(reply));
        break;
      }
      case FrameType::kShutdown: {
        (void)wire::WriteFrame(fd, FrameType::kShutdownAck, {});
        close(fd);
        return 0;
      }
      default:
        close(fd);
        return 4;
    }
  }
}

}  // namespace dgc
