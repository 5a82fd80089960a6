// Length-prefixed wire codec for the socket transport.
//
// Every frame on a coordinator<->site connection is
//
//   [u32 length][u8 frame-type][body ...]
//
// with `length` counting the type byte plus the body, little-endian, and
// bounded by kMaxFrameBytes so a corrupt peer cannot make the reader allocate
// the moon. The body is one record, encoded by the generic codec below; the
// reader never trusts the peer — every get is bounds-checked and flips a
// sticky ok() flag instead of reading past the end, so truncated, oversized,
// and garbage frames are rejected, not UB.
//
// Record layouts. Every record that crosses a socket or lands in a snapshot
// file states its layout once: a `Fields` function in the record's own
// namespace (argument-dependent lookup finds it) that ties its members in
// wire order,
//
//   auto Fields(Is<InsertMsg> auto& m) {
//     return std::tie(m.ref, m.pinned, m.distance);
//   }
//
// and one generic encoder, one generic decoder, one size counter and one
// minimum-size counter walk that list. Integers are fixed-width
// little-endian; a bool is one byte, 0 or 1; an enum is one byte no larger
// than its LastValue; a vector is a u32 count and then its elements; a
// FlatMap is a u32 count and then each key and its value, the keys strictly
// ascending (the decoder rejects any other order, so a decoded map is
// sorted and duplicate-free); a std::variant is a u8 alternative index and
// then the alternative. The decoder derives each element's minimum encoded
// size from the element's own field list, so seq_count rejects a count the
// remaining bytes cannot hold before anything is allocated.
//
// To add a payload: declare it in messages.h, add it to the Payload variant,
// and give it a Fields list below; the variant's index is its wire tag. To
// add a field: add it to its record's Fields list at its wire position and
// bump kWireVersion (kSnapshotVersion in net/site_host.cc for snapshot
// records). An enum field's type also needs a LastValue overload. No size or
// minimum is written by hand anywhere: the Network's byte counters and the
// central service's summary bytes come from EncodedSize.
//
// Addressing is Unix-domain today but nothing here assumes it: frames are a
// plain byte stream, TCP-ready.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/config.h"
#include "common/counters.h"
#include "common/flat_map.h"
#include "common/ids.h"
#include "net/messages.h"

namespace dgc::wire {

/// Hard ceiling on one frame's length field. Generous for any real payload
/// batch; small enough that a garbage header cannot demand a huge buffer.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Bytes of frame header preceding the type byte.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Protocol magic ("DGC1") and version carried by every Hello.
inline constexpr std::uint32_t kWireMagic = 0x44474331;
inline constexpr std::uint16_t kWireVersion = 7;

// ---------------------------------------------------------------------------
// Flat little-endian writer / bounds-checked reader.

class WireWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { PutLe(v, 2); }
  void u32(std::uint32_t v) { PutLe(v, 4); }
  void u64(std::uint64_t v) { PutLe(v, 8); }
  void i64(std::int64_t v) { PutLe(static_cast<std::uint64_t>(v), 8); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  void PutLe(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

/// Reads the writer's encoding back. Any underrun (or failed validation in a
/// higher-level decoder) sets ok() false, and every subsequent get returns
/// zero — decoders can read a whole struct and check ok() once at the end.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit WireReader(const std::vector<std::uint8_t>& bytes)
      : WireReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] bool ok() const { return ok_; }
  void fail() { ok_ = false; }
  [[nodiscard]] std::size_t remaining() const { return size_ - off_; }
  /// True when the reader consumed every byte without error — decoders use
  /// it to reject frames with trailing garbage.
  [[nodiscard]] bool exhausted() const { return ok_ && off_ == size_; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(GetLe(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(GetLe(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(GetLe(4)); }
  std::uint64_t u64() { return GetLe(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(GetLe(8)); }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) fail();
    return v == 1;
  }

  /// Element count of a variable-length sequence whose elements occupy at
  /// least `min_element_bytes` each. Rejecting counts the remaining bytes
  /// cannot possibly hold stops a garbage length from driving a huge
  /// reserve/loop before the per-element reads would catch it.
  std::uint32_t seq_count(std::size_t min_element_bytes) {
    const std::uint32_t n = u32();
    if (min_element_bytes > 0 &&
        static_cast<std::uint64_t>(n) * min_element_bytes > remaining()) {
      fail();
      return 0;
    }
    return n;
  }

 private:
  std::uint64_t GetLe(int bytes) {
    if (!ok_ || remaining() < static_cast<std::size_t>(bytes)) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(data_[off_ + i]) << (8 * i);
    }
    off_ += bytes;
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Frames.

enum class FrameType : std::uint8_t {
  kHello = 1,        // site -> coordinator: magic, version, site, incarnation
  kHelloAck,         // coordinator -> site: verdict + config + clock
  kStepRequest,      // coordinator -> site: advance to t, deliver envelopes
  kStepReply,        // site -> coordinator: staged sends + next event time
  kBuildOp,          // coordinator -> site: god-mode heap/table operation
  kBuildReply,       // site -> coordinator: op result + staged sends
  kQuery,            // coordinator -> site: report state
  kQueryReply,       // site -> coordinator: census + counters
  kShutdown,         // coordinator -> site: exit cleanly
  kShutdownAck,      // site -> coordinator: about to exit
};

inline constexpr std::uint8_t kMinFrameType =
    static_cast<std::uint8_t>(FrameType::kHello);
inline constexpr std::uint8_t kMaxFrameType =
    static_cast<std::uint8_t>(FrameType::kShutdownAck);

/// Appends one framed message (header + type + body) to `out`.
void AppendFrame(std::vector<std::uint8_t>& out, FrameType type,
                 const std::vector<std::uint8_t>& body);

enum class FrameParseStatus : std::uint8_t {
  kOk,         // a complete, well-typed frame was parsed
  kNeedMore,   // the buffer holds only a prefix of the frame (truncated)
  kOversized,  // length field exceeds kMaxFrameBytes
  kBadFrame,   // zero length or unknown frame type: garbage
};

struct FrameView {
  FrameType type = FrameType::kHello;
  const std::uint8_t* body = nullptr;
  std::size_t body_size = 0;
  std::size_t consumed = 0;  // header + length bytes eaten from the buffer
};

/// Parses the first frame out of a byte buffer (pure; the fd readers below
/// and the codec tests share it).
FrameParseStatus ParseFrame(const std::uint8_t* data, std::size_t size,
                            FrameView& out);

/// Blocking fd I/O with timeouts, EINTR-safe, short-read/short-write safe.
enum class IoStatus : std::uint8_t {
  kOk,
  kTimeout,  // no complete frame within timeout_ms
  kClosed,   // orderly EOF or broken pipe
  kError,    // oversized/garbage frame or unrecoverable errno
};

/// Writes one frame, its header and body gathered into writev(2) calls, so
/// a large body is never copied into a frame buffer. Returns kOk, kClosed
/// (EPIPE/ECONNRESET), or kError.
IoStatus WriteFrame(int fd, FrameType type,
                    const std::vector<std::uint8_t>& body);

/// Reads one complete frame. timeout_ms < 0 blocks indefinitely; 0 polls.
/// The timeout covers the whole frame, not each byte. Bytes read past the
/// frame, and those of an incomplete frame, stay in `carry` across calls
/// and timeouts, so polling a slow (e.g. SIGSTOPped) peer never corrupts
/// the stream: `carry` must persist per connection.
IoStatus ReadFrameBuffered(int fd, int timeout_ms,
                           std::vector<std::uint8_t>& carry, FrameType& type,
                           std::vector<std::uint8_t>& body);

// ---------------------------------------------------------------------------
// Handshake.

struct HelloFrame {
  std::uint32_t magic = kWireMagic;
  std::uint16_t version = kWireVersion;
  SiteId site = kInvalidSite;
  /// The incarnation this process will run as: 0 for a fresh site, the
  /// coordinator's current incarnation for a socket-sever reconnect, and
  /// snapshot-incarnation + 1 for a supervised restart after a crash.
  std::uint32_t incarnation = 0;
};

auto Fields(Is<HelloFrame> auto& f) {
  return std::tie(f.magic, f.version, f.site, f.incarnation);
}

enum class HandshakeVerdict : std::uint8_t {
  kAcceptNew,        // first connection of this site at incarnation 0
  kAcceptReconnect,  // same incarnation: the socket dropped, the process not
  kAcceptRestart,    // incarnation + 1: a replacement process after a crash
  kRejectBadMagic,
  kRejectVersion,
  kRejectUnknownSite,
  kRejectStale,  // an old incarnation (or a skip ahead) — zombie traffic
};

constexpr HandshakeVerdict LastValue(HandshakeVerdict) {
  return HandshakeVerdict::kRejectStale;
}

[[nodiscard]] const char* HandshakeVerdictName(HandshakeVerdict v);
[[nodiscard]] inline bool HandshakeAccepted(HandshakeVerdict v) {
  return v == HandshakeVerdict::kAcceptNew ||
         v == HandshakeVerdict::kAcceptReconnect ||
         v == HandshakeVerdict::kAcceptRestart;
}

/// Pure handshake classification: compares a Hello against the coordinator's
/// view (`expected_incarnation` = the incarnation currently registered for
/// the site, `seen_before` = whether the site has ever completed a
/// handshake). Exactly one incarnation step is accepted per handshake —
/// PR 4's NoteSiteRestarted bumps by one, so a larger skip means the peer
/// and coordinator disagree about history and the traffic cannot be trusted.
[[nodiscard]] HandshakeVerdict EvaluateHandshake(
    const HelloFrame& hello, std::size_t site_count,
    std::uint32_t expected_incarnation, bool seen_before);

struct HelloAckFrame {
  HandshakeVerdict verdict = HandshakeVerdict::kRejectStale;
  std::uint32_t site_count = 0;
  SimTime now = 0;
  bool failure_detection_enabled = false;
  CollectorConfig config;
};

auto Fields(Is<HelloAckFrame> auto& f) {
  return std::tie(f.verdict, f.site_count, f.now, f.failure_detection_enabled,
                  f.config);
}

// ---------------------------------------------------------------------------
// Engine frames. The coordinator's conservative time-stepped engine sends a
// StepRequest for every (site, instant) with work; the site advances its own
// scheduler to the instant, absorbs the delivered envelopes, and replies
// with the sends it staged plus its next pending event time.

struct StepRequestFrame {
  std::uint64_t seq = 0;
  SimTime target_time = 0;
  /// Failure-detector state, shipped because the site process has no
  /// Network: the peers this site currently suspects, and the peers whose
  /// recovery it should be notified of before this step runs.
  std::vector<SiteId> suspected;
  std::vector<SiteId> recovered;
  /// Peers that rejoined as a *new incarnation* since this site's last step
  /// (restart handshake accepted by the coordinator): the site scrubs back
  /// traces the dead incarnation initiated before resuming parked calls.
  std::vector<SiteId> restarted;
  std::vector<Envelope> envelopes;
};

auto Fields(Is<StepRequestFrame> auto& f) {
  return std::tie(f.seq, f.target_time, f.suspected, f.recovered, f.restarted,
                  f.envelopes);
}

struct StepReplyFrame {
  std::uint64_t seq = 0;
  SimTime next_event_time = 0;  // Scheduler::kNoPendingEvent when idle
  std::uint64_t handled = 0;    // envelopes + timer events processed
  std::vector<Envelope> staged;
};

auto Fields(Is<StepReplyFrame> auto& f) {
  return std::tie(f.seq, f.next_event_time, f.handled, f.staged);
}

/// God-mode operations the coordinator (SocketWorld) applies to a site's
/// heap/tables, mirroring System's build surface. Cross-site Wire splits
/// into its two halves, Site::WireSource and Site::WireTarget.
enum class BuildOpKind : std::uint8_t {
  kNewObject,    // n = slot count; reply carries the new id
  kSetRoot,      // a = object to make a persistent root
  kWireLocal,    // a[slot] = b where b is local (or invalid): plain SetSlot
  kWireSource,   // source side of a cross-site wire: a[slot] = b + outref
  kWireTarget,   // target side: register inref b with source site a.site
  kUnwire,       // a[slot] = invalid
  kStartTrace,   // start a local trace unless one is in flight
};

constexpr BuildOpKind LastValue(BuildOpKind) {
  return BuildOpKind::kStartTrace;
}

struct BuildOpFrame {
  std::uint64_t seq = 0;
  SimTime time = 0;  // site catches its clock up before applying
  BuildOpKind op = BuildOpKind::kNewObject;
  ObjectId a;
  ObjectId b;
  std::uint32_t slot = 0;
  std::uint64_t n = 0;
};

auto Fields(Is<BuildOpFrame> auto& f) {
  return std::tie(f.seq, f.time, f.op, f.a, f.b, f.slot, f.n);
}

struct BuildReplyFrame {
  std::uint64_t seq = 0;
  ObjectId result;  // kNewObject's allocation; invalid otherwise
  SimTime next_event_time = 0;
  std::vector<Envelope> staged;
};

auto Fields(Is<BuildReplyFrame> auto& f) {
  return std::tie(f.seq, f.result, f.next_event_time, f.staged);
}

struct QueryFrame {
  std::uint64_t seq = 0;
  SimTime time = 0;
};

auto Fields(Is<QueryFrame> auto& f) { return std::tie(f.seq, f.time); }

struct QueryReplyFrame {
  std::uint64_t seq = 0;
  std::uint64_t objects = 0;
  std::uint64_t reclaimed = 0;
  std::uint64_t traces_started = 0;
  std::uint64_t traces_garbage = 0;
  std::uint64_t traces_live = 0;
  bool trace_in_flight = false;
  std::uint32_t incarnation = 0;
  std::vector<ObjectId> survivors;  // live object ids, sorted
};

auto Fields(Is<QueryReplyFrame> auto& f) {
  return std::tie(f.seq, f.objects, f.reclaimed, f.traces_started,
                  f.traces_garbage, f.traces_live, f.trace_in_flight,
                  f.incarnation, f.survivors);
}

}  // namespace dgc::wire

// ---------------------------------------------------------------------------
// Field lists of the shared vocabulary: ids, the Payload alternatives (in
// variant order), the envelope, and the CollectorConfig a HelloAck ships.

namespace dgc {

auto Fields(Is<ObjectId> auto& id) { return std::tie(id.site, id.index); }
auto Fields(Is<TraceId> auto& id) { return std::tie(id.initiator, id.seq); }
auto Fields(Is<FrameId> auto& id) { return std::tie(id.site, id.frame); }

auto Fields(Is<InsertMsg> auto& m) {
  return std::tie(m.ref, m.pinned, m.distance);
}
auto Fields(Is<InsertAckMsg> auto& m) { return std::tie(m.ref); }
auto Fields(Is<UpdateEntry> auto& e) {
  return std::tie(e.ref, e.removed, e.distance);
}
auto Fields(Is<UpdateMsg> auto& m) { return std::tie(m.entries); }
auto Fields(Is<BackLocalCallMsg> auto& m) {
  return std::tie(m.trace, m.ref, m.caller);
}
auto Fields(Is<BackRemoteCallMsg> auto& m) {
  return std::tie(m.trace, m.ref, m.caller);
}
auto Fields(Is<BackReplyMsg> auto& m) {
  return std::tie(m.trace, m.to, m.result, m.participants);
}
auto Fields(Is<BackReportMsg> auto& m) { return std::tie(m.trace, m.outcome); }
auto Fields(Is<BackCallBatchMsg> auto& m) { return std::tie(m.calls); }
auto Fields(Is<MutatorReadMsg> auto& m) {
  return std::tie(m.session, m.target, m.slot);
}
auto Fields(Is<MutatorReadReplyMsg> auto& m) {
  return std::tie(m.session, m.value);
}
auto Fields(Is<MutatorWriteMsg> auto& m) {
  return std::tie(m.session, m.target, m.slot, m.value);
}
auto Fields(Is<MutatorWriteAckMsg> auto& m) { return std::tie(m.session); }
auto Fields(Is<FetchMsg> auto& m) { return std::tie(m.session, m.target); }
auto Fields(Is<FetchReplyMsg> auto& m) {
  return std::tie(m.session, m.target, m.slots);
}
auto Fields(Is<CommitWrite> auto& w) {
  return std::tie(w.target, w.slot, w.value);
}
auto Fields(Is<CommitMsg> auto& m) { return std::tie(m.session, m.writes); }
auto Fields(Is<CommitAckMsg> auto& m) { return std::tie(m.session); }
auto Fields(Is<PinReleaseMsg> auto& m) { return std::tie(m.ref); }
auto Fields(Is<GlobalGcControlMsg> auto& m) {
  return std::tie(m.epoch, m.phase, m.value);
}
auto Fields(Is<GlobalGcGrayMsg> auto& m) {
  return std::tie(m.epoch, m.targets);
}
auto Fields(Is<TimestampUpdateMsg::Entry> auto& e) {
  return std::tie(e.ref, e.stamp);
}
auto Fields(Is<TimestampUpdateMsg> auto& m) {
  return std::tie(m.entries, m.sender_trace_clock);
}
auto Fields(Is<MigrateMsg::MovedObject> auto& o) {
  return std::tie(o.id, o.refs);
}
auto Fields(Is<MigrateMsg> auto& m) { return std::tie(m.objects); }
auto Fields(Is<PatchMsg> auto& m) { return std::tie(m.old_id, m.new_id); }
auto Fields(Is<ReachabilitySummaryMsg::InrefInfo> auto& i) {
  return std::tie(i.inref, i.outset);
}
auto Fields(Is<ReachabilitySummaryMsg> auto& m) {
  return std::tie(m.epoch, m.inrefs, m.root_reachable_outrefs);
}
auto Fields(Is<CondemnMsg> auto& m) { return std::tie(m.epoch, m.inrefs); }

auto Fields(Is<Envelope> auto& e) { return std::tie(e.from, e.to, e.payload); }

auto Fields(Is<CollectorConfig> auto& c) {
  return std::tie(c.suspicion_threshold, c.estimated_cycle_length,
                  c.back_threshold_increment, c.local_trace_duration,
                  c.back_call_timeout, c.report_timeout,
                  c.update_refresh_period, c.enable_back_tracing,
                  c.park_on_suspected_failure);
}

/// The largest valid value of each enum field; decoding rejects a byte
/// above it.
constexpr BackResult LastValue(BackResult) { return BackResult::kLive; }
constexpr GlobalGcControlMsg::Phase LastValue(GlobalGcControlMsg::Phase) {
  return GlobalGcControlMsg::Phase::kSweepDone;
}

}  // namespace dgc

// ---------------------------------------------------------------------------
// The generic codec. The primitive overloads each read or write one integer
// or bool; everything else is a record (has Fields), an enum, a vector or a
// variant, and recurses into its parts.

namespace dgc::wire {

template <class T>
concept Record = requires(T& record) { Fields(record); };

inline void Encode(WireWriter& w, std::uint8_t v) { w.u8(v); }
inline void Encode(WireWriter& w, std::uint16_t v) { w.u16(v); }
inline void Encode(WireWriter& w, std::uint32_t v) { w.u32(v); }
inline void Encode(WireWriter& w, std::uint64_t v) { w.u64(v); }
inline void Encode(WireWriter& w, std::int64_t v) { w.i64(v); }
inline void Encode(WireWriter& w, bool v) { w.boolean(v); }

inline bool Decode(WireReader& r, std::uint8_t& v) {
  v = r.u8();
  return r.ok();
}
inline bool Decode(WireReader& r, std::uint16_t& v) {
  v = r.u16();
  return r.ok();
}
inline bool Decode(WireReader& r, std::uint32_t& v) {
  v = r.u32();
  return r.ok();
}
inline bool Decode(WireReader& r, std::uint64_t& v) {
  v = r.u64();
  return r.ok();
}
inline bool Decode(WireReader& r, std::int64_t& v) {
  v = r.i64();
  return r.ok();
}
inline bool Decode(WireReader& r, bool& v) {
  v = r.boolean();
  return r.ok();
}

/// MinBytes(Tag<T>{}) is the smallest number of bytes any encoding of a T
/// occupies: the seq_count guard's per-element minimum, derived from T's
/// field list.
template <class T>
struct Tag {};

template <class T>
  requires std::is_arithmetic_v<T> || std::is_enum_v<T>
constexpr std::size_t MinBytes(Tag<T>) { return sizeof(T); }
template <class T>
constexpr std::size_t MinBytes(Tag<std::vector<T>>) {
  return sizeof(std::uint32_t);  // the count; the vector may be empty
}
template <class K, class V>
constexpr std::size_t MinBytes(Tag<FlatMap<K, V>>) {
  return sizeof(std::uint32_t);  // likewise
}
template <class... A>
constexpr std::size_t MinBytes(Tag<std::variant<A...>>) {
  return sizeof(std::uint8_t) + std::min({MinBytes(Tag<A>{})...});
}
template <class... F>
constexpr std::size_t MinBytes(Tag<std::tuple<F&...>>) {
  return (MinBytes(Tag<F>{}) + ... + 0);
}
template <Record T>
constexpr std::size_t MinBytes(Tag<T>) {
  return MinBytes(Tag<decltype(Fields(std::declval<T&>()))>{});
}

template <class E>
  requires std::is_enum_v<E>
void Encode(WireWriter& w, E v) {
  static_assert(sizeof(E) == 1, "enum fields travel as one byte");
  Encode(w, static_cast<std::uint8_t>(v));
}

template <class E>
  requires std::is_enum_v<E>
bool Decode(WireReader& r, E& v) {
  std::uint8_t raw = 0;
  if (!Decode(r, raw)) return false;
  if (raw > static_cast<std::uint8_t>(LastValue(E{}))) {
    r.fail();
    return false;
  }
  v = static_cast<E>(raw);
  return true;
}

template <class T>
void Encode(WireWriter& w, const std::vector<T>& items) {
  Encode(w, static_cast<std::uint32_t>(items.size()));
  for (const T& item : items) Encode(w, item);
}

template <class T>
bool Decode(WireReader& r, std::vector<T>& items) {
  items.resize(r.seq_count(MinBytes(Tag<T>{})));
  for (T& item : items) {
    if (!Decode(r, item)) return false;
  }
  return r.ok();
}

template <class K, class V>
void Encode(WireWriter& w, const FlatMap<K, V>& map) {
  Encode(w, static_cast<std::uint32_t>(map.size()));
  for (const auto& [key, value] : map) {
    Encode(w, key);
    Encode(w, value);
  }
}

template <class K, class V>
bool Decode(WireReader& r, FlatMap<K, V>& map) {
  map.clear();
  const std::uint32_t n = r.seq_count(MinBytes(Tag<K>{}) + MinBytes(Tag<V>{}));
  map.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    K key{};
    if (!Decode(r, key)) return false;
    if (!map.empty() && !(std::prev(map.end())->first < key)) {
      r.fail();  // out of order or repeated
      return false;
    }
    if (!Decode(r, map.try_emplace(key).first->second)) return false;
  }
  return r.ok();
}

template <class... A>
void Encode(WireWriter& w, const std::variant<A...>& v) {
  Encode(w, static_cast<std::uint8_t>(v.index()));
  std::visit([&w](const auto& alternative) { Encode(w, alternative); }, v);
}

template <class... A>
bool Decode(WireReader& r, std::variant<A...>& v) {
  using Decoder = bool (*)(WireReader&, std::variant<A...>&);
  static constexpr Decoder kDecoders[] = {
      [](WireReader& in, std::variant<A...>& out) {
        return Decode(in, out.template emplace<A>());
      }...};
  std::uint8_t index = 0;
  if (!Decode(r, index)) return false;
  if (index >= sizeof...(A)) {
    r.fail();
    return false;
  }
  return kDecoders[index](r, v);
}

template <Record T>
void Encode(WireWriter& w, const T& record) {
  std::apply([&w](const auto&... field) { (Encode(w, field), ...); },
             Fields(record));
}

template <Record T>
bool Decode(WireReader& r, T& record) {
  return std::apply([&r](auto&... field) { return (Decode(r, field) && ...); },
                    Fields(record));
}

/// EncodedSize(x) is the number of bytes Encode(w, x) appends, walking the
/// same field lists without writing them. The compound overloads are
/// declared first so each can name the others (no argument type here
/// brings this namespace in by lookup, as WireWriter does for Encode).
template <class T>
  requires std::is_arithmetic_v<T> || std::is_enum_v<T>
constexpr std::size_t EncodedSize(const T&) {
  return sizeof(T);
}
template <class T>
std::size_t EncodedSize(const std::vector<T>& items);
template <class... A>
std::size_t EncodedSize(const std::variant<A...>& v);
template <Record T>
std::size_t EncodedSize(const T& record);

template <class T>
std::size_t EncodedSize(const std::vector<T>& items) {
  std::size_t total = sizeof(std::uint32_t);
  for (const T& item : items) total += EncodedSize(item);
  return total;
}
template <class... A>
std::size_t EncodedSize(const std::variant<A...>& v) {
  return sizeof(std::uint8_t) +
         std::visit(
             [](const auto& alternative) { return EncodedSize(alternative); },
             v);
}
template <Record T>
std::size_t EncodedSize(const T& record) {
  return std::apply(
      [](const auto&... field) {
        return (EncodedSize(field) + ... + std::size_t{0});
      },
      Fields(record));
}

/// One record as a frame body.
template <class T>
std::vector<std::uint8_t> EncodeBody(const T& record) {
  WireWriter w;
  Encode(w, record);
  return w.take();
}

/// A whole frame body as one record: fails on any malformed field and on
/// trailing bytes.
template <class T>
[[nodiscard]] bool DecodeBody(const std::vector<std::uint8_t>& body,
                              T& out) {
  WireReader r(body);
  return Decode(r, out) && r.exhausted();
}

/// Named envelope entry points (the end-to-end benchmark times them).
inline void EncodeEnvelope(WireWriter& w, const Envelope& env) {
  Encode(w, env);
}
[[nodiscard]] inline bool DecodeEnvelope(WireReader& r, Envelope& out) {
  return Decode(r, out);
}

}  // namespace dgc::wire
