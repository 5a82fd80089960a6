#include "net/wire.h"

#include <errno.h>
#include <poll.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <utility>
#include <variant>

namespace dgc::wire {

namespace {

// -- Per-payload bodies. Field order here IS the wire format; the round-trip
// tests in net_test cover every alternative, so any drift between these and
// messages.h fails loudly.

void Put(WireWriter& w, const InsertMsg& m) {
  w.object_id(m.ref);
  w.u32(m.new_source);
  w.u32(m.pinned_site);
  w.u32(m.distance);
}
bool Get(WireReader& r, InsertMsg& m) {
  m.ref = r.object_id();
  m.new_source = r.u32();
  m.pinned_site = r.u32();
  m.distance = r.u32();
  return r.ok();
}

void Put(WireWriter& w, const InsertAckMsg& m) {
  w.object_id(m.ref);
  w.u32(m.new_source);
}
bool Get(WireReader& r, InsertAckMsg& m) {
  m.ref = r.object_id();
  m.new_source = r.u32();
  return r.ok();
}

void Put(WireWriter& w, const UpdateMsg& m) {
  w.u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const UpdateEntry& e : m.entries) {
    w.object_id(e.ref);
    w.boolean(e.removed);
    w.u32(e.distance);
  }
}
bool Get(WireReader& r, UpdateMsg& m) {
  const std::uint32_t n = r.seq_count(17);
  m.entries.resize(n);
  for (UpdateEntry& e : m.entries) {
    e.ref = r.object_id();
    e.removed = r.boolean();
    e.distance = r.u32();
  }
  return r.ok();
}

void Put(WireWriter& w, const BackLocalCallMsg& m) {
  w.trace_id(m.trace);
  w.object_id(m.ref);
  w.frame_id(m.caller);
}
bool Get(WireReader& r, BackLocalCallMsg& m) {
  m.trace = r.trace_id();
  m.ref = r.object_id();
  m.caller = r.frame_id();
  return r.ok();
}

void Put(WireWriter& w, const BackRemoteCallMsg& m) {
  w.trace_id(m.trace);
  w.object_id(m.ref);
  w.frame_id(m.caller);
}
bool Get(WireReader& r, BackRemoteCallMsg& m) {
  m.trace = r.trace_id();
  m.ref = r.object_id();
  m.caller = r.frame_id();
  return r.ok();
}

void Put(WireWriter& w, const BackReplyMsg& m) {
  w.trace_id(m.trace);
  w.frame_id(m.to);
  w.u8(static_cast<std::uint8_t>(m.result));
  w.u32(static_cast<std::uint32_t>(m.participants.size()));
  for (SiteId s : m.participants) w.u32(s);
}
bool Get(WireReader& r, BackReplyMsg& m) {
  m.trace = r.trace_id();
  m.to = r.frame_id();
  const std::uint8_t result = r.u8();
  if (result > 1) r.fail();
  m.result = static_cast<BackResult>(result);
  const std::uint32_t n = r.seq_count(4);
  m.participants.resize(n);
  for (SiteId& s : m.participants) s = r.u32();
  return r.ok();
}

void Put(WireWriter& w, const BackReportMsg& m) {
  w.trace_id(m.trace);
  w.u8(static_cast<std::uint8_t>(m.outcome));
}
bool Get(WireReader& r, BackReportMsg& m) {
  m.trace = r.trace_id();
  const std::uint8_t outcome = r.u8();
  if (outcome > 1) r.fail();
  m.outcome = static_cast<BackResult>(outcome);
  return r.ok();
}

void Put(WireWriter& w, const BackCallBatchMsg& m) {
  w.u32(static_cast<std::uint32_t>(m.calls.size()));
  for (const BackLocalCallMsg& c : m.calls) Put(w, c);
}
bool Get(WireReader& r, BackCallBatchMsg& m) {
  const std::uint32_t n = r.seq_count(32);
  m.calls.resize(n);
  for (BackLocalCallMsg& c : m.calls) {
    if (!Get(r, c)) return false;
  }
  return r.ok();
}

void Put(WireWriter& w, const MutatorReadMsg& m) {
  w.u64(m.session);
  w.object_id(m.target);
  w.u32(m.slot);
}
bool Get(WireReader& r, MutatorReadMsg& m) {
  m.session = r.u64();
  m.target = r.object_id();
  m.slot = r.u32();
  return r.ok();
}

void Put(WireWriter& w, const MutatorReadReplyMsg& m) {
  w.u64(m.session);
  w.object_id(m.value);
}
bool Get(WireReader& r, MutatorReadReplyMsg& m) {
  m.session = r.u64();
  m.value = r.object_id();
  return r.ok();
}

void Put(WireWriter& w, const MutatorWriteMsg& m) {
  w.u64(m.session);
  w.object_id(m.target);
  w.u32(m.slot);
  w.object_id(m.value);
}
bool Get(WireReader& r, MutatorWriteMsg& m) {
  m.session = r.u64();
  m.target = r.object_id();
  m.slot = r.u32();
  m.value = r.object_id();
  return r.ok();
}

void Put(WireWriter& w, const MutatorWriteAckMsg& m) { w.u64(m.session); }
bool Get(WireReader& r, MutatorWriteAckMsg& m) {
  m.session = r.u64();
  return r.ok();
}

void Put(WireWriter& w, const FetchMsg& m) {
  w.u64(m.session);
  w.object_id(m.target);
}
bool Get(WireReader& r, FetchMsg& m) {
  m.session = r.u64();
  m.target = r.object_id();
  return r.ok();
}

void Put(WireWriter& w, const FetchReplyMsg& m) {
  w.u64(m.session);
  w.object_id(m.target);
  w.u32(static_cast<std::uint32_t>(m.slots.size()));
  for (const ObjectId& id : m.slots) w.object_id(id);
}
bool Get(WireReader& r, FetchReplyMsg& m) {
  m.session = r.u64();
  m.target = r.object_id();
  const std::uint32_t n = r.seq_count(12);
  m.slots.resize(n);
  for (ObjectId& id : m.slots) id = r.object_id();
  return r.ok();
}

void Put(WireWriter& w, const CommitMsg& m) {
  w.u64(m.session);
  w.u32(static_cast<std::uint32_t>(m.writes.size()));
  for (const CommitWrite& cw : m.writes) {
    w.object_id(cw.target);
    w.u32(cw.slot);
    w.object_id(cw.value);
  }
}
bool Get(WireReader& r, CommitMsg& m) {
  m.session = r.u64();
  const std::uint32_t n = r.seq_count(28);
  m.writes.resize(n);
  for (CommitWrite& cw : m.writes) {
    cw.target = r.object_id();
    cw.slot = r.u32();
    cw.value = r.object_id();
  }
  return r.ok();
}

void Put(WireWriter& w, const CommitAckMsg& m) { w.u64(m.session); }
bool Get(WireReader& r, CommitAckMsg& m) {
  m.session = r.u64();
  return r.ok();
}

void Put(WireWriter& w, const PinReleaseMsg& m) { w.object_id(m.ref); }
bool Get(WireReader& r, PinReleaseMsg& m) {
  m.ref = r.object_id();
  return r.ok();
}

void Put(WireWriter& w, const GlobalGcControlMsg& m) {
  w.u64(m.epoch);
  w.u8(static_cast<std::uint8_t>(m.phase));
  w.u64(m.value);
}
bool Get(WireReader& r, GlobalGcControlMsg& m) {
  m.epoch = r.u64();
  const std::uint8_t phase = r.u8();
  if (phase > static_cast<std::uint8_t>(GlobalGcControlMsg::Phase::kSweepDone)) {
    r.fail();
  }
  m.phase = static_cast<GlobalGcControlMsg::Phase>(phase);
  m.value = r.u64();
  return r.ok();
}

void Put(WireWriter& w, const GlobalGcGrayMsg& m) {
  w.u64(m.epoch);
  w.u32(static_cast<std::uint32_t>(m.targets.size()));
  for (const ObjectId& id : m.targets) w.object_id(id);
}
bool Get(WireReader& r, GlobalGcGrayMsg& m) {
  m.epoch = r.u64();
  const std::uint32_t n = r.seq_count(12);
  m.targets.resize(n);
  for (ObjectId& id : m.targets) id = r.object_id();
  return r.ok();
}

void Put(WireWriter& w, const TimestampUpdateMsg& m) {
  w.u32(static_cast<std::uint32_t>(m.entries.size()));
  for (const TimestampUpdateMsg::Entry& e : m.entries) {
    w.object_id(e.ref);
    w.i64(e.stamp);
  }
  w.i64(m.sender_trace_clock);
}
bool Get(WireReader& r, TimestampUpdateMsg& m) {
  const std::uint32_t n = r.seq_count(20);
  m.entries.resize(n);
  for (TimestampUpdateMsg::Entry& e : m.entries) {
    e.ref = r.object_id();
    e.stamp = r.i64();
  }
  m.sender_trace_clock = r.i64();
  return r.ok();
}

void Put(WireWriter& w, const MigrateMsg& m) {
  w.u32(static_cast<std::uint32_t>(m.objects.size()));
  for (const MigrateMsg::MovedObject& o : m.objects) {
    w.object_id(o.id);
    w.u32(static_cast<std::uint32_t>(o.refs.size()));
    for (const ObjectId& id : o.refs) w.object_id(id);
  }
}
bool Get(WireReader& r, MigrateMsg& m) {
  const std::uint32_t n = r.seq_count(16);
  m.objects.resize(n);
  for (MigrateMsg::MovedObject& o : m.objects) {
    o.id = r.object_id();
    const std::uint32_t refs = r.seq_count(12);
    o.refs.resize(refs);
    for (ObjectId& id : o.refs) id = r.object_id();
  }
  return r.ok();
}

void Put(WireWriter& w, const PatchMsg& m) {
  w.object_id(m.old_id);
  w.object_id(m.new_id);
}
bool Get(WireReader& r, PatchMsg& m) {
  m.old_id = r.object_id();
  m.new_id = r.object_id();
  return r.ok();
}

void Put(WireWriter& w, const ReachabilitySummaryMsg& m) {
  w.u64(m.epoch);
  w.u32(static_cast<std::uint32_t>(m.inrefs.size()));
  for (const ReachabilitySummaryMsg::InrefInfo& i : m.inrefs) {
    w.object_id(i.inref);
    w.u32(static_cast<std::uint32_t>(i.outset.size()));
    for (const ObjectId& id : i.outset) w.object_id(id);
  }
  w.u32(static_cast<std::uint32_t>(m.root_reachable_outrefs.size()));
  for (const ObjectId& id : m.root_reachable_outrefs) w.object_id(id);
}
bool Get(WireReader& r, ReachabilitySummaryMsg& m) {
  m.epoch = r.u64();
  const std::uint32_t n = r.seq_count(16);
  m.inrefs.resize(n);
  for (ReachabilitySummaryMsg::InrefInfo& i : m.inrefs) {
    i.inref = r.object_id();
    const std::uint32_t outset = r.seq_count(12);
    i.outset.resize(outset);
    for (ObjectId& id : i.outset) id = r.object_id();
  }
  const std::uint32_t roots = r.seq_count(12);
  m.root_reachable_outrefs.resize(roots);
  for (ObjectId& id : m.root_reachable_outrefs) id = r.object_id();
  return r.ok();
}

void Put(WireWriter& w, const CondemnMsg& m) {
  w.u64(m.epoch);
  w.u32(static_cast<std::uint32_t>(m.inrefs.size()));
  for (const ObjectId& id : m.inrefs) w.object_id(id);
}
bool Get(WireReader& r, CondemnMsg& m) {
  m.epoch = r.u64();
  const std::uint32_t n = r.seq_count(12);
  m.inrefs.resize(n);
  for (ObjectId& id : m.inrefs) id = r.object_id();
  return r.ok();
}

void PutEnvelopeList(WireWriter& w, const std::vector<Envelope>& envs) {
  w.u32(static_cast<std::uint32_t>(envs.size()));
  for (const Envelope& env : envs) EncodeEnvelope(w, env);
}
bool GetEnvelopeList(WireReader& r, std::vector<Envelope>& out) {
  const std::uint32_t n = r.seq_count(9);
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Envelope env;
    if (!DecodeEnvelope(r, env)) return false;
    out.push_back(std::move(env));
  }
  return r.ok();
}

void PutSiteList(WireWriter& w, const std::vector<SiteId>& sites) {
  w.u32(static_cast<std::uint32_t>(sites.size()));
  for (SiteId s : sites) w.u32(s);
}
bool GetSiteList(WireReader& r, std::vector<SiteId>& out) {
  const std::uint32_t n = r.seq_count(4);
  out.resize(n);
  for (SiteId& s : out) s = r.u32();
  return r.ok();
}

}  // namespace

void EncodePayload(WireWriter& w, const Payload& payload) {
  static_assert(kPayloadKinds == 24,
                "new Payload alternative: add a Put/Get pair and a decode "
                "case, and extend the net_test round-trip table");
  w.u8(static_cast<std::uint8_t>(payload.index()));
  std::visit([&w](const auto& m) { Put(w, m); }, payload);
}

bool DecodePayload(WireReader& r, Payload& out) {
  const std::uint8_t index = r.u8();
  if (!r.ok()) return false;
#define DGC_WIRE_CASE(T)                                      \
  {                                                           \
    T m{};                                                    \
    if (!Get(r, m)) return false;                             \
    out = std::move(m);                                       \
    return true;                                              \
  }
  switch (index) {
    case 0: DGC_WIRE_CASE(InsertMsg)
    case 1: DGC_WIRE_CASE(InsertAckMsg)
    case 2: DGC_WIRE_CASE(UpdateMsg)
    case 3: DGC_WIRE_CASE(BackLocalCallMsg)
    case 4: DGC_WIRE_CASE(BackRemoteCallMsg)
    case 5: DGC_WIRE_CASE(BackReplyMsg)
    case 6: DGC_WIRE_CASE(BackReportMsg)
    case 7: DGC_WIRE_CASE(BackCallBatchMsg)
    case 8: DGC_WIRE_CASE(MutatorReadMsg)
    case 9: DGC_WIRE_CASE(MutatorReadReplyMsg)
    case 10: DGC_WIRE_CASE(MutatorWriteMsg)
    case 11: DGC_WIRE_CASE(MutatorWriteAckMsg)
    case 12: DGC_WIRE_CASE(FetchMsg)
    case 13: DGC_WIRE_CASE(FetchReplyMsg)
    case 14: DGC_WIRE_CASE(CommitMsg)
    case 15: DGC_WIRE_CASE(CommitAckMsg)
    case 16: DGC_WIRE_CASE(PinReleaseMsg)
    case 17: DGC_WIRE_CASE(GlobalGcControlMsg)
    case 18: DGC_WIRE_CASE(GlobalGcGrayMsg)
    case 19: DGC_WIRE_CASE(TimestampUpdateMsg)
    case 20: DGC_WIRE_CASE(MigrateMsg)
    case 21: DGC_WIRE_CASE(PatchMsg)
    case 22: DGC_WIRE_CASE(ReachabilitySummaryMsg)
    case 23: DGC_WIRE_CASE(CondemnMsg)
    default:
      r.fail();
      return false;
  }
#undef DGC_WIRE_CASE
}

void EncodeEnvelope(WireWriter& w, const Envelope& env) {
  w.u32(env.from);
  w.u32(env.to);
  EncodePayload(w, env.payload);
}

bool DecodeEnvelope(WireReader& r, Envelope& out) {
  out.from = r.u32();
  out.to = r.u32();
  return DecodePayload(r, out.payload);
}

void EncodeCollectorConfig(WireWriter& w, const CollectorConfig& c) {
  w.u32(c.suspicion_threshold);
  w.u32(c.estimated_cycle_length);
  w.u32(c.back_threshold_increment);
  w.i64(c.local_trace_duration);
  w.i64(c.back_call_timeout);
  w.i64(c.report_timeout);
  w.u64(c.update_refresh_period);
  w.i64(c.source_lease_ttl);
  w.boolean(c.enable_back_tracing);
  w.u8(static_cast<std::uint8_t>(c.insert_mode));
  w.u64(c.trace_threads);
  w.u64(c.mark_threads);
  w.boolean(c.enable_verdict_cache);
  w.boolean(c.coalesce_traces);
  w.boolean(c.batch_back_calls);
  w.boolean(c.incremental_trace);
  w.boolean(c.incremental_differential);
  w.boolean(c.park_on_suspected_failure);
  w.boolean(c.short_circuit_live_replies);
}

bool DecodeCollectorConfig(WireReader& r, CollectorConfig& c) {
  c.suspicion_threshold = r.u32();
  c.estimated_cycle_length = r.u32();
  c.back_threshold_increment = r.u32();
  c.local_trace_duration = r.i64();
  c.back_call_timeout = r.i64();
  c.report_timeout = r.i64();
  c.update_refresh_period = r.u64();
  c.source_lease_ttl = r.i64();
  c.enable_back_tracing = r.boolean();
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(InsertMode::kDeferred)) r.fail();
  c.insert_mode = static_cast<InsertMode>(mode);
  c.trace_threads = static_cast<std::size_t>(r.u64());
  c.mark_threads = static_cast<std::size_t>(r.u64());
  c.enable_verdict_cache = r.boolean();
  c.coalesce_traces = r.boolean();
  c.batch_back_calls = r.boolean();
  c.incremental_trace = r.boolean();
  c.incremental_differential = r.boolean();
  c.park_on_suspected_failure = r.boolean();
  c.short_circuit_live_replies = r.boolean();
  return r.ok();
}

// ---------------------------------------------------------------------------
// Framing.

void AppendFrame(std::vector<std::uint8_t>& out, FrameType type,
                 const std::vector<std::uint8_t>& body) {
  const std::uint32_t length = static_cast<std::uint32_t>(1 + body.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(length >> (8 * i)));
  }
  out.push_back(static_cast<std::uint8_t>(type));
  out.insert(out.end(), body.begin(), body.end());
}

FrameParseStatus ParseFrame(const std::uint8_t* data, std::size_t size,
                            FrameView& out) {
  if (size < kFrameHeaderBytes) return FrameParseStatus::kNeedMore;
  std::uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<std::uint32_t>(data[i]) << (8 * i);
  }
  if (length == 0) return FrameParseStatus::kBadFrame;
  if (length > kMaxFrameBytes) return FrameParseStatus::kOversized;
  if (size < kFrameHeaderBytes + length) return FrameParseStatus::kNeedMore;
  const std::uint8_t type = data[kFrameHeaderBytes];
  if (type < kMinFrameType || type > kMaxFrameType) {
    return FrameParseStatus::kBadFrame;
  }
  out.type = static_cast<FrameType>(type);
  out.body = data + kFrameHeaderBytes + 1;
  out.body_size = length - 1;
  out.consumed = kFrameHeaderBytes + length;
  return FrameParseStatus::kOk;
}

namespace {

/// poll() for readability/writability with a whole-operation deadline.
/// Returns 1 ready, 0 timeout, -1 error/hup-without-data.
int WaitFd(int fd, short events, int timeout_ms,
           std::chrono::steady_clock::time_point deadline, bool bounded) {
  (void)timeout_ms;
  while (true) {
    int wait = -1;
    if (bounded) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      // An elapsed (or zero) budget still gets one non-blocking poll:
      // a zero-timeout read must observe data the kernel already queued,
      // not unconditionally report a timeout.
      wait = left > 0 ? static_cast<int>(left) : 0;
    }
    struct pollfd pfd = {fd, events, 0};
    const int rc = poll(&pfd, 1, wait);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (rc == 0) return 0;
    return 1;
  }
}

}  // namespace

IoStatus WriteFrame(int fd, FrameType type,
                    const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + 1 + body.size());
  AppendFrame(frame, type, body);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = write(fd, frame.data() + off, frame.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const auto deadline = std::chrono::steady_clock::now();
      if (WaitFd(fd, POLLOUT, -1, deadline, /*bounded=*/false) < 0) {
        return IoStatus::kError;
      }
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return IoStatus::kClosed;
    }
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus WriteFrameV(int fd, FrameType type,
                     const std::vector<std::uint8_t>& body) {
  std::uint8_t header[kFrameHeaderBytes + 1];
  const std::uint32_t length = static_cast<std::uint32_t>(1 + body.size());
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  header[kFrameHeaderBytes] = static_cast<std::uint8_t>(type);
  const std::size_t header_bytes = sizeof header;
  const std::size_t total = header_bytes + body.size();
  std::size_t off = 0;
  while (off < total) {
    struct iovec iov[2];
    int iovcnt = 0;
    if (off < header_bytes) {
      iov[iovcnt].iov_base = header + off;
      iov[iovcnt].iov_len = header_bytes - off;
      ++iovcnt;
      if (!body.empty()) {
        iov[iovcnt].iov_base = const_cast<std::uint8_t*>(body.data());
        iov[iovcnt].iov_len = body.size();
        ++iovcnt;
      }
    } else {
      const std::size_t body_off = off - header_bytes;
      iov[iovcnt].iov_base = const_cast<std::uint8_t*>(body.data()) + body_off;
      iov[iovcnt].iov_len = body.size() - body_off;
      ++iovcnt;
    }
    const ssize_t n = writev(fd, iov, iovcnt);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const auto deadline = std::chrono::steady_clock::now();
      if (WaitFd(fd, POLLOUT, -1, deadline, /*bounded=*/false) < 0) {
        return IoStatus::kError;
      }
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return IoStatus::kClosed;
    }
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus ReadFrameBuffered(int fd, int timeout_ms,
                           std::vector<std::uint8_t>& carry, FrameType& type,
                           std::vector<std::uint8_t>& body) {
  const bool bounded = timeout_ms >= 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    FrameView view;
    switch (ParseFrame(carry.data(), carry.size(), view)) {
      case FrameParseStatus::kOk:
        type = view.type;
        body.assign(view.body, view.body + view.body_size);
        carry.erase(carry.begin(),
                    carry.begin() + static_cast<std::ptrdiff_t>(view.consumed));
        return IoStatus::kOk;
      case FrameParseStatus::kOversized:
      case FrameParseStatus::kBadFrame:
        return IoStatus::kError;
      case FrameParseStatus::kNeedMore:
        break;
    }
    const int ready = WaitFd(fd, POLLIN, timeout_ms, deadline, bounded);
    // A timeout keeps the partial frame in `carry` — the caller retries
    // later and no bytes are lost (a paused site may resume mid-frame).
    if (ready == 0) return IoStatus::kTimeout;
    if (ready < 0) return IoStatus::kError;
    std::uint8_t chunk[64 * 1024];
    const ssize_t n = read(fd, chunk, sizeof(chunk));
    if (n == 0) return IoStatus::kClosed;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      if (errno == ECONNRESET) return IoStatus::kClosed;
      return IoStatus::kError;
    }
    carry.insert(carry.end(), chunk, chunk + n);
  }
}

IoStatus ReadFrame(int fd, int timeout_ms, FrameType& type,
                   std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> carry;
  return ReadFrameBuffered(fd, timeout_ms, carry, type, body);
}

// ---------------------------------------------------------------------------
// Handshake.

const char* HandshakeVerdictName(HandshakeVerdict v) {
  switch (v) {
    case HandshakeVerdict::kAcceptNew: return "accept-new";
    case HandshakeVerdict::kAcceptReconnect: return "accept-reconnect";
    case HandshakeVerdict::kAcceptRestart: return "accept-restart";
    case HandshakeVerdict::kRejectBadMagic: return "reject-bad-magic";
    case HandshakeVerdict::kRejectVersion: return "reject-version";
    case HandshakeVerdict::kRejectUnknownSite: return "reject-unknown-site";
    case HandshakeVerdict::kRejectStale: return "reject-stale";
  }
  return "unknown";
}

HandshakeVerdict EvaluateHandshake(const HelloFrame& hello,
                                   std::size_t site_count,
                                   std::uint32_t expected_incarnation,
                                   bool seen_before) {
  if (hello.magic != kWireMagic) return HandshakeVerdict::kRejectBadMagic;
  if (hello.version != kWireVersion) return HandshakeVerdict::kRejectVersion;
  if (hello.site >= site_count) return HandshakeVerdict::kRejectUnknownSite;
  if (hello.incarnation == expected_incarnation) {
    return seen_before ? HandshakeVerdict::kAcceptReconnect
                       : HandshakeVerdict::kAcceptNew;
  }
  if (hello.incarnation == expected_incarnation + 1 && seen_before) {
    return HandshakeVerdict::kAcceptRestart;
  }
  return HandshakeVerdict::kRejectStale;
}

void EncodeHello(WireWriter& w, const HelloFrame& hello) {
  w.u32(hello.magic);
  w.u16(hello.version);
  w.u32(hello.site);
  w.u32(hello.incarnation);
}

bool DecodeHello(WireReader& r, HelloFrame& out) {
  out.magic = r.u32();
  out.version = r.u16();
  out.site = r.u32();
  out.incarnation = r.u32();
  return r.ok();
}

void EncodeHelloAck(WireWriter& w, const HelloAckFrame& ack) {
  w.u8(static_cast<std::uint8_t>(ack.verdict));
  w.u32(ack.site_count);
  w.i64(ack.now);
  w.boolean(ack.failure_detection_enabled);
  EncodeCollectorConfig(w, ack.config);
}

bool DecodeHelloAck(WireReader& r, HelloAckFrame& out) {
  const std::uint8_t verdict = r.u8();
  if (verdict > static_cast<std::uint8_t>(HandshakeVerdict::kRejectStale)) {
    r.fail();
  }
  out.verdict = static_cast<HandshakeVerdict>(verdict);
  out.site_count = r.u32();
  out.now = r.i64();
  out.failure_detection_enabled = r.boolean();
  return DecodeCollectorConfig(r, out.config) && r.ok();
}

// ---------------------------------------------------------------------------
// Engine frames.

void EncodeStepRequest(WireWriter& w, const StepRequestFrame& f) {
  w.u64(f.seq);
  w.i64(f.target_time);
  PutSiteList(w, f.suspected);
  PutSiteList(w, f.recovered);
  PutSiteList(w, f.restarted);
  PutEnvelopeList(w, f.envelopes);
}

bool DecodeStepRequest(WireReader& r, StepRequestFrame& out) {
  out.seq = r.u64();
  out.target_time = r.i64();
  return GetSiteList(r, out.suspected) && GetSiteList(r, out.recovered) &&
         GetSiteList(r, out.restarted) && GetEnvelopeList(r, out.envelopes);
}

void EncodeStepReply(WireWriter& w, const StepReplyFrame& f) {
  w.u64(f.seq);
  w.i64(f.next_event_time);
  w.u64(f.handled);
  PutEnvelopeList(w, f.staged);
}

bool DecodeStepReply(WireReader& r, StepReplyFrame& out) {
  out.seq = r.u64();
  out.next_event_time = r.i64();
  out.handled = r.u64();
  return GetEnvelopeList(r, out.staged);
}

void EncodeBuildOp(WireWriter& w, const BuildOpFrame& f) {
  w.u64(f.seq);
  w.i64(f.time);
  w.u8(static_cast<std::uint8_t>(f.op));
  w.object_id(f.a);
  w.object_id(f.b);
  w.u32(f.slot);
  w.u64(f.n);
}

bool DecodeBuildOp(WireReader& r, BuildOpFrame& out) {
  out.seq = r.u64();
  out.time = r.i64();
  const std::uint8_t op = r.u8();
  if (op > kMaxBuildOpKind) r.fail();
  out.op = static_cast<BuildOpKind>(op);
  out.a = r.object_id();
  out.b = r.object_id();
  out.slot = r.u32();
  out.n = r.u64();
  return r.ok();
}

void EncodeBuildReply(WireWriter& w, const BuildReplyFrame& f) {
  w.u64(f.seq);
  w.object_id(f.result);
  w.i64(f.next_event_time);
  PutEnvelopeList(w, f.staged);
}

bool DecodeBuildReply(WireReader& r, BuildReplyFrame& out) {
  out.seq = r.u64();
  out.result = r.object_id();
  out.next_event_time = r.i64();
  return GetEnvelopeList(r, out.staged);
}

void EncodeQuery(WireWriter& w, const QueryFrame& f) {
  w.u64(f.seq);
  w.i64(f.time);
}

bool DecodeQuery(WireReader& r, QueryFrame& out) {
  out.seq = r.u64();
  out.time = r.i64();
  return r.ok();
}

void EncodeQueryReply(WireWriter& w, const QueryReplyFrame& f) {
  w.u64(f.seq);
  w.u64(f.objects);
  w.u64(f.reclaimed);
  w.u64(f.traces_started);
  w.u64(f.traces_garbage);
  w.u64(f.traces_live);
  w.boolean(f.trace_in_flight);
  w.u32(f.incarnation);
  w.u32(static_cast<std::uint32_t>(f.survivors.size()));
  for (const ObjectId& id : f.survivors) w.object_id(id);
}

bool DecodeQueryReply(WireReader& r, QueryReplyFrame& out) {
  out.seq = r.u64();
  out.objects = r.u64();
  out.reclaimed = r.u64();
  out.traces_started = r.u64();
  out.traces_garbage = r.u64();
  out.traces_live = r.u64();
  out.trace_in_flight = r.boolean();
  out.incarnation = r.u32();
  const std::uint32_t n = r.seq_count(12);
  out.survivors.resize(n);
  for (ObjectId& id : out.survivors) id = r.object_id();
  return r.ok();
}

}  // namespace dgc::wire
