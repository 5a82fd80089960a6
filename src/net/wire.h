// Length-prefixed wire codec for the socket transport.
//
// Every frame on a coordinator<->site connection is
//
//   [u32 length][u8 frame-type][body ...]
//
// with `length` counting the type byte plus the body, little-endian, and
// bounded by kMaxFrameBytes so a corrupt peer cannot make the reader allocate
// the moon. The body is a flat fixed-width little-endian encoding written by
// WireWriter and read back by WireReader; the reader never trusts the peer —
// every get is bounds-checked and flips a sticky ok() flag instead of
// reading past the end, so truncated, oversized, and garbage frames are
// rejected, not UB.
//
// The same codec serializes the full Payload vocabulary (messages.h), the
// CollectorConfig shipped to site processes at handshake, and the engine's
// step/build/query frames. Site snapshots (net/site_host.h) reuse
// WireWriter/WireReader for their on-disk image.
//
// Addressing is Unix-domain today but nothing here assumes it: frames are a
// plain byte stream, TCP-ready.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/config.h"
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
inline constexpr std::uint16_t kWireVersion = 2;

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
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void object_id(const ObjectId& id) {
    u32(id.site);
    u64(id.index);
  }
  void trace_id(const TraceId& id) {
    u32(id.initiator);
    u32(id.seq);
  }
  void frame_id(const FrameId& id) {
    u32(id.site);
    u64(id.frame);
  }

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
  std::string str() {
    const std::uint32_t n = u32();
    if (n > remaining()) {
      fail();
      return {};
    }
    std::string out(reinterpret_cast<const char*>(data_ + off_), n);
    off_ += n;
    return out;
  }
  ObjectId object_id() {
    ObjectId id;
    id.site = u32();
    id.index = u64();
    return id;
  }
  TraceId trace_id() {
    TraceId id;
    id.initiator = u32();
    id.seq = u32();
    return id;
  }
  FrameId frame_id() {
    FrameId id;
    id.site = u32();
    id.frame = u64();
    return id;
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

/// Writes one frame. Returns kOk, kClosed (EPIPE/ECONNRESET), or kError.
IoStatus WriteFrame(int fd, FrameType type,
                    const std::vector<std::uint8_t>& body);

/// WriteFrame without the concatenation copy: gathers the 5-byte header and
/// the body into one writev(2), so a large StepRequest body never gets
/// memcpy'd into a temporary frame buffer. Identical return contract.
IoStatus WriteFrameV(int fd, FrameType type,
                     const std::vector<std::uint8_t>& body);

/// Reads one complete frame. timeout_ms < 0 blocks indefinitely; 0 polls.
/// The timeout covers the whole frame, not each byte. A timeout discards
/// any partial bytes read — use the buffered variant when the connection
/// must survive the timeout.
IoStatus ReadFrame(int fd, int timeout_ms, FrameType& type,
                   std::vector<std::uint8_t>& body);

/// ReadFrame with an explicit carry buffer: bytes of an incomplete frame
/// stay in `carry` across a kTimeout, so polling a slow (e.g. SIGSTOPped)
/// peer never corrupts the stream. `carry` must persist per connection.
IoStatus ReadFrameBuffered(int fd, int timeout_ms,
                           std::vector<std::uint8_t>& carry, FrameType& type,
                           std::vector<std::uint8_t>& body);

// ---------------------------------------------------------------------------
// Payload / envelope codec.

void EncodePayload(WireWriter& w, const Payload& payload);
[[nodiscard]] bool DecodePayload(WireReader& r, Payload& out);

void EncodeEnvelope(WireWriter& w, const Envelope& env);
[[nodiscard]] bool DecodeEnvelope(WireReader& r, Envelope& out);

void EncodeCollectorConfig(WireWriter& w, const CollectorConfig& config);
[[nodiscard]] bool DecodeCollectorConfig(WireReader& r, CollectorConfig& out);

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

enum class HandshakeVerdict : std::uint8_t {
  kAcceptNew,        // first connection of this site at incarnation 0
  kAcceptReconnect,  // same incarnation: the socket dropped, the process not
  kAcceptRestart,    // incarnation + 1: a replacement process after a crash
  kRejectBadMagic,
  kRejectVersion,
  kRejectUnknownSite,
  kRejectStale,  // an old incarnation (or a skip ahead) — zombie traffic
};

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

void EncodeHello(WireWriter& w, const HelloFrame& hello);
[[nodiscard]] bool DecodeHello(WireReader& r, HelloFrame& out);

struct HelloAckFrame {
  HandshakeVerdict verdict = HandshakeVerdict::kRejectStale;
  std::uint32_t site_count = 0;
  SimTime now = 0;
  bool failure_detection_enabled = false;
  CollectorConfig config;
};

void EncodeHelloAck(WireWriter& w, const HelloAckFrame& ack);
[[nodiscard]] bool DecodeHelloAck(WireReader& r, HelloAckFrame& out);

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

struct StepReplyFrame {
  std::uint64_t seq = 0;
  SimTime next_event_time = 0;  // Scheduler::kNoPendingEvent when idle
  std::uint64_t handled = 0;    // envelopes + timer events processed
  std::vector<Envelope> staged;
};

/// God-mode operations the coordinator (SocketWorld) applies to a site's
/// heap/tables, mirroring System's build surface. Cross-site Wire splits
/// into the two half-ops WireSlotTo performs on each side.
enum class BuildOpKind : std::uint8_t {
  kNewObject,    // n = slot count; reply carries the new id
  kSetRoot,      // a = object to make a persistent root
  kWireLocal,    // a[slot] = b where b is local (or invalid): plain SetSlot
  kWireSource,   // source side of a cross-site wire: a[slot] = b + outref
  kWireTarget,   // target side: register inref b with source site a.site
  kUnwire,       // a[slot] = invalid
  kStartTrace,   // start a local trace unless one is in flight
};

inline constexpr std::uint8_t kMaxBuildOpKind =
    static_cast<std::uint8_t>(BuildOpKind::kStartTrace);

struct BuildOpFrame {
  std::uint64_t seq = 0;
  SimTime time = 0;  // site catches its clock up before applying
  BuildOpKind op = BuildOpKind::kNewObject;
  ObjectId a;
  ObjectId b;
  std::uint32_t slot = 0;
  std::uint64_t n = 0;
};

struct BuildReplyFrame {
  std::uint64_t seq = 0;
  ObjectId result;  // kNewObject's allocation; invalid otherwise
  SimTime next_event_time = 0;
  std::vector<Envelope> staged;
};

struct QueryFrame {
  std::uint64_t seq = 0;
  SimTime time = 0;
};

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

void EncodeStepRequest(WireWriter& w, const StepRequestFrame& f);
[[nodiscard]] bool DecodeStepRequest(WireReader& r, StepRequestFrame& out);
void EncodeStepReply(WireWriter& w, const StepReplyFrame& f);
[[nodiscard]] bool DecodeStepReply(WireReader& r, StepReplyFrame& out);
void EncodeBuildOp(WireWriter& w, const BuildOpFrame& f);
[[nodiscard]] bool DecodeBuildOp(WireReader& r, BuildOpFrame& out);
void EncodeBuildReply(WireWriter& w, const BuildReplyFrame& f);
[[nodiscard]] bool DecodeBuildReply(WireReader& r, BuildReplyFrame& out);
void EncodeQuery(WireWriter& w, const QueryFrame& f);
[[nodiscard]] bool DecodeQuery(WireReader& r, QueryFrame& out);
void EncodeQueryReply(WireWriter& w, const QueryReplyFrame& f);
[[nodiscard]] bool DecodeQueryReply(WireReader& r, QueryReplyFrame& out);

}  // namespace dgc::wire
