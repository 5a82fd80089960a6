#include "net/wire.h"

#include <errno.h>
#include <poll.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <chrono>

namespace dgc::wire {

// ---------------------------------------------------------------------------
// Framing.

namespace {

/// A frame's bytes before its body: the u32 length (type byte plus body),
/// then the type byte.
std::array<std::uint8_t, kFrameHeaderBytes + 1> FrameHeader(
    FrameType type, std::size_t body_size) {
  std::array<std::uint8_t, kFrameHeaderBytes + 1> header{};
  const std::uint32_t length = static_cast<std::uint32_t>(1 + body_size);
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    header[i] = static_cast<std::uint8_t>(length >> (8 * i));
  }
  header[kFrameHeaderBytes] = static_cast<std::uint8_t>(type);
  return header;
}

/// poll() for readability/writability with a whole-operation deadline.
/// Returns 1 ready, 0 timeout, -1 error/hup-without-data.
int WaitFd(int fd, short events,
           std::chrono::steady_clock::time_point deadline, bool bounded) {
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

void AppendFrame(std::vector<std::uint8_t>& out, FrameType type,
                 const std::vector<std::uint8_t>& body) {
  const auto header = FrameHeader(type, body.size());
  out.insert(out.end(), header.begin(), header.end());
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

IoStatus WriteFrame(int fd, FrameType type,
                    const std::vector<std::uint8_t>& body) {
  auto header = FrameHeader(type, body.size());
  const std::size_t total = header.size() + body.size();
  std::size_t off = 0;
  while (off < total) {
    // The unwritten rest of the header, then of the body.
    struct iovec iov[2];
    int iovcnt = 0;
    if (off < header.size()) {
      iov[iovcnt++] = {header.data() + off, header.size() - off};
    }
    const std::size_t body_off = off < header.size() ? 0 : off - header.size();
    if (body_off < body.size()) {
      iov[iovcnt++] = {const_cast<std::uint8_t*>(body.data()) + body_off,
                       body.size() - body_off};
    }
    const ssize_t n = writev(fd, iov, iovcnt);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (WaitFd(fd, POLLOUT, {}, /*bounded=*/false) < 0) {
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
    const int ready = WaitFd(fd, POLLIN, deadline, bounded);
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

}  // namespace dgc::wire
