// The wire suite: the socket transport's codec and the site snapshot.
//
//   * Golden bytes: every record the transport puts on a wire, encoded once
//     and compared with a pinned length and 64-bit FNV-1a hash. Round trips
//     re-encode with the codec under test, so a field that moved in both the
//     encoder and the decoder passes them; the pinned table does not.
//   * Framing, round trips, truncation and handshake classification.
//   * A mutation fuzzer with a fixed budget over every golden record and a
//     snapshot captured from a small built site: every truncation, every
//     single-bit flip and 0xFFFFFFFF at every offset, then seeded random
//     bit flips, truncations, forced counts, spliced tails and byte runs.
//     A mutant must either fail to decode, or decode from every byte and
//     re-encode to exactly itself; decoded Hellos go through the handshake
//     classification, and accepted snapshots restore into a fresh Site
//     without an InvariantViolation.
//   * The snapshot consistency rules, one test each.
//
// All pure: no sockets, no forks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/site.h"
#include "core/system.h"
#include "net/site_host.h"
#include "net/wire.h"
#include "workload/builders.h"

namespace dgc {
namespace {

std::uint64_t Fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string Hex(const std::vector<std::uint8_t>& bytes) {
  std::string out;
  char buf[4];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof buf, "%02x", b);
    out += buf;
  }
  return out;
}

/// One representative of every Payload alternative, in variant order, with
/// non-default field values so a field swap or a missed vector would show.
std::vector<Payload> OnePayloadOfEachKind() {
  std::vector<Payload> all;
  all.push_back(InsertMsg{ObjectId{2, 7}, true, 5});
  all.push_back(InsertAckMsg{ObjectId{2, 7}});
  all.push_back(UpdateMsg{{UpdateEntry{ObjectId{1, 2}, true, kDistanceInfinity},
                           UpdateEntry{ObjectId{3, 4}, false, 9}}});
  all.push_back(BackLocalCallMsg{TraceId{1, 2}, ObjectId{3, 4}, FrameId{5, 6}});
  all.push_back(
      BackRemoteCallMsg{TraceId{1, 2}, ObjectId{3, 4}, FrameId{5, 6}});
  all.push_back(
      BackReplyMsg{TraceId{1, 2}, FrameId{3, 4}, BackResult::kLive, {0, 2, 3}});
  all.push_back(BackReportMsg{TraceId{1, 2}, BackResult::kGarbage});
  all.push_back(BackCallBatchMsg{
      {BackLocalCallMsg{TraceId{1, 2}, ObjectId{3, 4}, FrameId{5, 6}},
       BackLocalCallMsg{TraceId{7, 8}, ObjectId{9, 10}, FrameId{11, 12}}}});
  all.push_back(MutatorReadMsg{42, ObjectId{1, 2}, 3});
  all.push_back(MutatorReadReplyMsg{42, ObjectId{1, 2}});
  all.push_back(MutatorWriteMsg{42, ObjectId{1, 2}, 3, ObjectId{4, 5}});
  all.push_back(MutatorWriteAckMsg{42});
  all.push_back(FetchMsg{42, ObjectId{1, 2}});
  all.push_back(
      FetchReplyMsg{42, ObjectId{1, 2}, {ObjectId{3, 4}, kInvalidObject}});
  all.push_back(
      CommitMsg{42,
                {CommitWrite{ObjectId{1, 2}, 0, ObjectId{3, 4}},
                 CommitWrite{ObjectId{5, 6}, 1, kInvalidObject}}});
  all.push_back(CommitAckMsg{42});
  all.push_back(PinReleaseMsg{ObjectId{1, 2}});
  all.push_back(
      GlobalGcControlMsg{9, GlobalGcControlMsg::Phase::kSweepDone, 17});
  all.push_back(GlobalGcGrayMsg{9, {ObjectId{1, 2}, ObjectId{3, 4}}});
  all.push_back(TimestampUpdateMsg{
      {TimestampUpdateMsg::Entry{ObjectId{1, 2}, -5}}, 11});
  all.push_back(MigrateMsg{
      {MigrateMsg::MovedObject{ObjectId{1, 2}, {ObjectId{3, 4}}}}});
  all.push_back(PatchMsg{ObjectId{1, 2}, ObjectId{3, 4}});
  ReachabilitySummaryMsg summary;
  summary.epoch = 7;
  summary.inrefs.push_back({ObjectId{1, 2}, {ObjectId{3, 4}, ObjectId{5, 6}}});
  summary.root_reachable_outrefs.push_back(ObjectId{7, 8});
  all.push_back(summary);
  all.push_back(CondemnMsg{9, {ObjectId{1, 2}}});
  return all;
}

/// Decodes `bytes` as one whole T; on success re-encodes it into `again`.
/// A decoded Hello also goes through the coordinator's classification.
template <class T>
bool RoundTrip(const std::vector<std::uint8_t>& bytes,
               std::vector<std::uint8_t>& again) {
  T record{};
  if (!wire::DecodeBody(bytes, record)) return false;
  if constexpr (std::is_same_v<T, wire::HelloFrame>) {
    for (const bool seen_before : {false, true}) {
      const wire::HandshakeVerdict verdict = wire::EvaluateHandshake(
          record, /*site_count=*/4, /*expected_incarnation=*/1, seen_before);
      EXPECT_NE(std::string(wire::HandshakeVerdictName(verdict)), "unknown");
    }
  }
  again = wire::EncodeBody(record);
  return true;
}

struct Sample {
  std::string name;
  std::vector<std::uint8_t> bytes;
  std::size_t encoded_size;  // wire::EncodedSize of the record
  bool (*round_trip)(const std::vector<std::uint8_t>&,
                     std::vector<std::uint8_t>&);
};

template <class T>
Sample MakeSample(std::string name, const T& record) {
  return Sample{std::move(name), wire::EncodeBody(record),
                wire::EncodedSize(record), &RoundTrip<T>};
}

/// Every record kind with non-default fields, in a fixed order: the 24
/// payloads, an envelope, then the handshake and engine frames.
std::vector<Sample> GoldenSamples() {
  std::vector<Sample> samples;
  for (const Payload& payload : OnePayloadOfEachKind()) {
    samples.push_back(MakeSample(PayloadKindName(payload.index()), payload));
  }
  samples.push_back(MakeSample(
      "Envelope",
      Envelope{3, 1,
               BackReplyMsg{TraceId{3, 9}, FrameId{1, 77}, BackResult::kGarbage,
                            {3, 1}}}));

  wire::HelloFrame hello;
  hello.site = 2;
  hello.incarnation = 5;
  samples.push_back(MakeSample("Hello", hello));

  wire::HelloAckFrame ack;
  ack.verdict = wire::HandshakeVerdict::kAcceptRestart;
  ack.site_count = 4;
  ack.now = 123;
  ack.failure_detection_enabled = true;
  CollectorConfig& c = ack.config;
  c.suspicion_threshold = 7;
  c.estimated_cycle_length = 11;
  c.back_threshold_increment = 3;
  c.local_trace_duration = 13;
  c.back_call_timeout = 17;
  c.report_timeout = 999;
  c.update_refresh_period = 6;
  c.enable_back_tracing = false;
  c.park_on_suspected_failure = false;
  samples.push_back(MakeSample("HelloAck", ack));

  wire::StepRequestFrame step;
  step.seq = 9;
  step.target_time = 77;
  step.suspected = {2};
  step.recovered = {1, 3};
  step.restarted = {1};
  step.envelopes.push_back(Envelope{0, 1, InsertMsg{ObjectId{1, 4}, true, 6}});
  step.envelopes.push_back(
      Envelope{2, 1, UpdateMsg{{UpdateEntry{ObjectId{1, 5}, false, 3}}}});
  samples.push_back(MakeSample("StepRequest", step));

  wire::StepReplyFrame reply;
  reply.seq = 11;
  reply.next_event_time = 345;
  reply.handled = 6;
  reply.staged.push_back(Envelope{1, 0, PinReleaseMsg{ObjectId{0, 9}}});
  samples.push_back(MakeSample("StepReply", reply));

  wire::BuildOpFrame op;
  op.seq = 3;
  op.time = 50;
  op.op = wire::BuildOpKind::kWireTarget;
  op.a = ObjectId{0, 1};
  op.b = ObjectId{2, 3};
  op.slot = 1;
  op.n = 4;
  samples.push_back(MakeSample("BuildOp", op));

  wire::BuildReplyFrame build;
  build.seq = 3;
  build.result = ObjectId{2, 8};
  build.next_event_time = 60;
  build.staged.push_back(Envelope{2, 0, InsertAckMsg{ObjectId{2, 8}}});
  samples.push_back(MakeSample("BuildReply", build));

  wire::QueryFrame query;
  query.seq = 21;
  query.time = 900;
  samples.push_back(MakeSample("Query", query));

  wire::QueryReplyFrame census;
  census.seq = 21;
  census.objects = 5;
  census.reclaimed = 7;
  census.traces_started = 2;
  census.traces_garbage = 1;
  census.traces_live = 1;
  census.trace_in_flight = true;
  census.incarnation = 3;
  census.survivors = {ObjectId{0, 1}, ObjectId{0, 4}};
  samples.push_back(MakeSample("QueryReply", census));
  return samples;
}

struct Pinned {
  const char* name;
  std::size_t size;
  std::uint64_t fnv1a;
};

// A kWireVersion bump changes the Hello entry and a CollectorConfig field
// the HelloAck entry; any other change to this table is a change of the
// wire format.

// clang-format off
constexpr Pinned kPinned[] = {
    {"Insert", 18, 0x1704c59588b7d814ULL},
    {"InsertAck", 13, 0x3c45e13895609329ULL},
    {"Update", 39, 0xa6979259af592f0dULL},
    {"BackLocalCall", 33, 0x3d4c65ea57dd0105ULL},
    {"BackRemoteCall", 33, 0x5988d0d14cf9db64ULL},
    {"BackReply", 38, 0xa31836aff2689c8dULL},
    {"BackReport", 10, 0xbe7c36bc805a89aeULL},
    {"BackCallBatch", 69, 0x17a4a5cd4f0edc28ULL},
    {"MutatorRead", 25, 0xa96420cb4d8966cdULL},
    {"MutatorReadReply", 21, 0x2dbbf9f2c85a29bdULL},
    {"MutatorWrite", 37, 0xcee4d059a4195e16ULL},
    {"MutatorWriteAck", 9, 0xff9cdb0892c0a700ULL},
    {"Fetch", 21, 0xebfe31c209805ae2ULL},
    {"FetchReply", 49, 0x9a33197eec73e9b0ULL},
    {"Commit", 69, 0x243d2cc7d183b39bULL},
    {"CommitAck", 9, 0x70a547d4fc2756f4ULL},
    {"PinRelease", 13, 0x4872ad91b8d3686cULL},
    {"GlobalGcControl", 18, 0x02fe1de6624a76d2ULL},
    {"GlobalGcGray", 37, 0xdb1573718026ad0aULL},
    {"TimestampUpdate", 33, 0x92a5a65332f53a67ULL},
    {"Migrate", 33, 0x6c6e24bfe0d54fc7ULL},
    {"Patch", 25, 0x6c6b9237f810bb04ULL},
    {"ReachabilitySummary", 69, 0x8f2357b421dea4f4ULL},
    {"Condemn", 25, 0xdb1c95da5f6bafcdULL},
    {"Envelope", 42, 0x1daaee7a3ea6b220ULL},
    {"Hello", 14, 0xa81c765a520fa6c6ULL},
    {"HelloAck", 60, 0x1af274ebd5ba5312ULL},
    {"StepRequest", 104, 0x37e1441ef1a65d6aULL},
    {"StepReply", 49, 0xbd42c057bacb1a07ULL},
    {"BuildOp", 53, 0x599dbfc73c3ed4f5ULL},
    {"BuildReply", 53, 0x83a396dde5a703acULL},
    {"Query", 16, 0x3651229acbc520c5ULL},
    {"QueryReply", 81, 0x15f93b0620a11a77ULL},
};
// clang-format on

TEST(WireGoldenTest, EveryRecordEncodesToItsPinnedBytes) {
  const std::vector<Sample> samples = GoldenSamples();
  ASSERT_EQ(samples.size(), std::size(kPinned));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    SCOPED_TRACE(s.name);
    EXPECT_EQ(s.name, kPinned[i].name);
    EXPECT_EQ(s.bytes.size(), kPinned[i].size) << Hex(s.bytes);
    EXPECT_EQ(Fnv1a(s.bytes), kPinned[i].fnv1a) << Hex(s.bytes);
    // The byte counters size records with the same field walk.
    EXPECT_EQ(s.encoded_size, s.bytes.size());
  }
}

// ---------------------------------------------------------------------------
// Wire codec (net/wire.h): the byte format every coordinator<->site frame
// travels in. All pure — no sockets, no forks.

TEST(WireCodecTest, EveryPayloadKindRoundTrips) {
  const std::vector<Payload> all = OnePayloadOfEachKind();
  ASSERT_EQ(all.size(), kPayloadKinds);
  for (std::size_t i = 0; i < all.size(); ++i) {
    SCOPED_TRACE(PayloadKindName(i));
    ASSERT_EQ(all[i].index(), i);  // table order matches the variant
    const std::vector<std::uint8_t> bytes = wire::EncodeBody(all[i]);
    wire::WireReader r(bytes);
    Payload decoded;
    ASSERT_TRUE(wire::Decode(r, decoded));
    EXPECT_TRUE(r.exhausted());
    ASSERT_EQ(decoded.index(), i);
    // The structs have no operator==; byte-identical re-encoding is the
    // equality that matters on a wire anyway.
    EXPECT_EQ(wire::EncodeBody(decoded), bytes);
  }
}

TEST(WireCodecTest, MinimumSizesComeFromTheFieldLists) {
  using wire::MinBytes;
  using wire::Tag;
  EXPECT_EQ(MinBytes(Tag<ObjectId>{}), 12u);
  EXPECT_EQ(MinBytes(Tag<UpdateEntry>{}), 17u);
  EXPECT_EQ(MinBytes(Tag<BackLocalCallMsg>{}), 32u);
  EXPECT_EQ(MinBytes(Tag<CommitWrite>{}), 28u);
  EXPECT_EQ(MinBytes(Tag<TimestampUpdateMsg::Entry>{}), 20u);
  EXPECT_EQ(MinBytes(Tag<MigrateMsg::MovedObject>{}), 16u);
  // From, to, the alternative index, and the smallest payload: an empty
  // vector's count.
  EXPECT_EQ(MinBytes(Tag<Envelope>{}), 13u);
  for (const Payload& payload : OnePayloadOfEachKind()) {
    EXPECT_LE(MinBytes(Tag<Payload>{}), wire::EncodeBody(payload).size());
  }
}

TEST(WireCodecTest, TruncatedPayloadsFailCleanly) {
  for (const Payload& payload : OnePayloadOfEachKind()) {
    SCOPED_TRACE(PayloadKindName(payload.index()));
    const std::vector<std::uint8_t> bytes = wire::EncodeBody(payload);
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      wire::WireReader r(bytes.data(), len);
      Payload out;
      EXPECT_FALSE(wire::Decode(r, out)) << "prefix " << len;
    }
  }
}

TEST(WireCodecTest, UnknownPayloadKindIsRejected) {
  wire::WireWriter w;
  wire::EncodeEnvelope(w, Envelope{0, 1, InsertMsg{}});
  std::vector<std::uint8_t> bytes = w.take();
  bytes[8] = 0xEE;  // from(4) + to(4), then the payload kind byte
  wire::WireReader r(bytes);
  Envelope out;
  EXPECT_FALSE(wire::DecodeEnvelope(r, out));
}

TEST(WireCodecTest, GarbageVectorCountCannotDriveAHugeAllocation) {
  // A corrupt count claiming 2^32-1 entries must fail on the spot (via
  // seq_count's plausibility check), not reserve gigabytes first.
  wire::WireWriter w;
  w.u8(2);           // UpdateMsg's variant index
  w.u32(0xFFFFFFFF);  // entry count with no bytes behind it
  wire::WireReader r(w.data());
  Payload out;
  EXPECT_FALSE(wire::Decode(r, out));
}

TEST(WireCodecTest, FlatMapKeysMustStrictlyAscend) {
  // Two entries of a FlatMap<u32, u16>: a count, then each key and value.
  const auto bytes = [](std::uint8_t first, std::uint8_t second) {
    return std::vector<std::uint8_t>{2,      0, 0, 0,        // count
                                     first,  0, 0, 0, 7, 0,  // key, value
                                     second, 0, 0, 0, 9, 0};
  };
  FlatMap<std::uint32_t, std::uint16_t> map;
  ASSERT_TRUE(wire::DecodeBody(bytes(3, 5), map));
  ASSERT_EQ(map.size(), 2u);
  EXPECT_EQ(map.at(3), 7);
  EXPECT_EQ(map.at(5), 9);
  EXPECT_EQ(wire::EncodeBody(map), bytes(3, 5));
  EXPECT_FALSE(wire::DecodeBody(bytes(5, 3), map)) << "descending keys";
  EXPECT_FALSE(wire::DecodeBody(bytes(3, 3), map)) << "repeated key";
}

TEST(WireFramingTest, EveryFrameTypeRoundTripsAndPrefixesWantMore) {
  const std::vector<std::uint8_t> body = {0xde, 0xad, 0xbe, 0xef};
  for (std::uint8_t t = wire::kMinFrameType; t <= wire::kMaxFrameType; ++t) {
    SCOPED_TRACE(static_cast<int>(t));
    std::vector<std::uint8_t> buf;
    wire::AppendFrame(buf, static_cast<wire::FrameType>(t), body);
    wire::FrameView view;
    ASSERT_EQ(wire::ParseFrame(buf.data(), buf.size(), view),
              wire::FrameParseStatus::kOk);
    EXPECT_EQ(view.type, static_cast<wire::FrameType>(t));
    EXPECT_EQ(view.consumed, buf.size());
    EXPECT_EQ(std::vector<std::uint8_t>(view.body, view.body + view.body_size),
              body);
    for (std::size_t n = 0; n < buf.size(); ++n) {
      EXPECT_EQ(wire::ParseFrame(buf.data(), n, view),
                wire::FrameParseStatus::kNeedMore)
          << "prefix " << n;
    }
  }
}

TEST(WireFramingTest, BackToBackFramesParseInSequence) {
  std::vector<std::uint8_t> buf;
  wire::AppendFrame(buf, wire::FrameType::kQuery, {1, 2});
  wire::AppendFrame(buf, wire::FrameType::kShutdown, {});
  wire::FrameView first;
  ASSERT_EQ(wire::ParseFrame(buf.data(), buf.size(), first),
            wire::FrameParseStatus::kOk);
  EXPECT_EQ(first.type, wire::FrameType::kQuery);
  wire::FrameView second;
  ASSERT_EQ(wire::ParseFrame(buf.data() + first.consumed,
                             buf.size() - first.consumed, second),
            wire::FrameParseStatus::kOk);
  EXPECT_EQ(second.type, wire::FrameType::kShutdown);
  EXPECT_EQ(second.body_size, 0u);
  EXPECT_EQ(first.consumed + second.consumed, buf.size());
}

TEST(WireFramingTest, OversizedAndGarbageFramesAreRejected) {
  const auto parse = [](const std::vector<std::uint8_t>& buf) {
    wire::FrameView view;
    return wire::ParseFrame(buf.data(), buf.size(), view);
  };
  const auto header = [](std::uint32_t length) {
    return std::vector<std::uint8_t>{static_cast<std::uint8_t>(length),
                                     static_cast<std::uint8_t>(length >> 8),
                                     static_cast<std::uint8_t>(length >> 16),
                                     static_cast<std::uint8_t>(length >> 24)};
  };
  // Length past the ceiling: rejected from the header alone, before any
  // body bytes exist to allocate for.
  EXPECT_EQ(parse(header(wire::kMaxFrameBytes + 1)),
            wire::FrameParseStatus::kOversized);
  // Zero length: no room for even the type byte.
  EXPECT_EQ(parse(header(0)), wire::FrameParseStatus::kBadFrame);
  // Unknown frame types on either side of the valid range.
  for (const std::uint8_t type :
       {static_cast<std::uint8_t>(0),
        static_cast<std::uint8_t>(wire::kMaxFrameType + 1),
        static_cast<std::uint8_t>(0xFF)}) {
    std::vector<std::uint8_t> buf = header(1);
    buf.push_back(type);
    EXPECT_EQ(parse(buf), wire::FrameParseStatus::kBadFrame)
        << "type " << static_cast<int>(type);
  }
}

TEST(WireHandshakeTest, VerdictMatrix) {
  using wire::HandshakeVerdict;
  const auto evaluate = [](std::uint32_t incarnation, std::uint32_t expected,
                           bool seen_before) {
    wire::HelloFrame hello;
    hello.site = 1;
    hello.incarnation = incarnation;
    return wire::EvaluateHandshake(hello, /*site_count=*/4, expected,
                                   seen_before);
  };
  // The three accepts: fresh site, socket-sever redial, crash replacement.
  EXPECT_EQ(evaluate(0, 0, false), HandshakeVerdict::kAcceptNew);
  EXPECT_EQ(evaluate(3, 3, true), HandshakeVerdict::kAcceptReconnect);
  EXPECT_EQ(evaluate(4, 3, true), HandshakeVerdict::kAcceptRestart);
  // Zombie traffic: an old incarnation redialing after its replacement.
  EXPECT_EQ(evaluate(2, 3, true), HandshakeVerdict::kRejectStale);
  // A skip ahead means peer and coordinator disagree about history.
  EXPECT_EQ(evaluate(5, 3, true), HandshakeVerdict::kRejectStale);
  // A restart claim for a site never seen is equally untrustworthy.
  EXPECT_EQ(evaluate(1, 0, false), HandshakeVerdict::kRejectStale);

  wire::HelloFrame hello;
  hello.site = 1;
  hello.magic = 0xBADBAD;
  EXPECT_EQ(wire::EvaluateHandshake(hello, 4, 0, false),
            HandshakeVerdict::kRejectBadMagic);
  hello.magic = wire::kWireMagic;
  hello.version = wire::kWireVersion + 1;
  EXPECT_EQ(wire::EvaluateHandshake(hello, 4, 0, false),
            HandshakeVerdict::kRejectVersion);
  hello.version = wire::kWireVersion;
  hello.site = 4;  // one past the last valid site
  EXPECT_EQ(wire::EvaluateHandshake(hello, 4, 0, false),
            HandshakeVerdict::kRejectUnknownSite);

  for (const HandshakeVerdict v :
       {HandshakeVerdict::kAcceptNew, HandshakeVerdict::kAcceptReconnect,
        HandshakeVerdict::kAcceptRestart}) {
    EXPECT_TRUE(wire::HandshakeAccepted(v));
    EXPECT_NE(wire::HandshakeVerdictName(v), nullptr);
  }
  for (const HandshakeVerdict v :
       {HandshakeVerdict::kRejectBadMagic, HandshakeVerdict::kRejectVersion,
        HandshakeVerdict::kRejectUnknownSite, HandshakeVerdict::kRejectStale}) {
    EXPECT_FALSE(wire::HandshakeAccepted(v));
    EXPECT_NE(wire::HandshakeVerdictName(v), nullptr);
  }
}

TEST(WireHandshakeTest, HelloAndAckRoundTrip) {
  wire::HelloFrame hello;
  hello.site = 2;
  hello.incarnation = 5;
  wire::WireWriter w;
  wire::Encode(w, hello);
  wire::WireReader r(w.data());
  wire::HelloFrame hello2;
  ASSERT_TRUE(wire::Decode(r, hello2));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(hello2.magic, wire::kWireMagic);
  EXPECT_EQ(hello2.version, wire::kWireVersion);
  EXPECT_EQ(hello2.site, 2u);
  EXPECT_EQ(hello2.incarnation, 5u);

  wire::HelloAckFrame ack;
  ack.verdict = wire::HandshakeVerdict::kAcceptRestart;
  ack.site_count = 4;
  ack.now = 123;
  ack.failure_detection_enabled = true;
  ack.config.suspicion_threshold = 7;
  ack.config.report_timeout = 999;
  wire::WireWriter wa;
  wire::Encode(wa, ack);
  wire::WireReader ra(wa.data());
  wire::HelloAckFrame ack2;
  ASSERT_TRUE(wire::Decode(ra, ack2));
  EXPECT_EQ(ack2.verdict, wire::HandshakeVerdict::kAcceptRestart);
  EXPECT_EQ(ack2.site_count, 4u);
  EXPECT_EQ(ack2.now, 123);
  EXPECT_TRUE(ack2.failure_detection_enabled);
  EXPECT_EQ(ack2.config.suspicion_threshold, 7u);
  EXPECT_EQ(ack2.config.report_timeout, 999);

  // The config payload makes the ack the largest handshake frame; every
  // strict prefix must still fail cleanly.
  const std::vector<std::uint8_t> bytes = wa.take();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    wire::WireReader rp(bytes.data(), len);
    wire::HelloAckFrame out;
    EXPECT_FALSE(wire::Decode(rp, out)) << "prefix " << len;
  }
}

TEST(WireEngineFrameTest, StepRequestCarriesDetectorStateAndEnvelopes) {
  wire::StepRequestFrame f;
  f.seq = 9;
  f.target_time = 77;
  f.suspected = {2};
  f.recovered = {1, 3};
  f.restarted = {1};  // restart notice: scrub the dead incarnation's traces
  f.envelopes.push_back(Envelope{0, 1, InsertMsg{ObjectId{1, 4}, true, 6}});
  wire::WireWriter w;
  wire::Encode(w, f);
  wire::WireReader r(w.data());
  wire::StepRequestFrame f2;
  ASSERT_TRUE(wire::Decode(r, f2));
  EXPECT_TRUE(r.exhausted());
  EXPECT_EQ(f2.seq, 9u);
  EXPECT_EQ(f2.target_time, 77);
  EXPECT_EQ(f2.suspected, std::vector<SiteId>{2});
  EXPECT_EQ(f2.recovered, (std::vector<SiteId>{1, 3}));
  EXPECT_EQ(f2.restarted, std::vector<SiteId>{1});
  ASSERT_EQ(f2.envelopes.size(), 1u);
  EXPECT_EQ(f2.envelopes[0].from, 0u);
  EXPECT_EQ(f2.envelopes[0].to, 1u);
  EXPECT_EQ(std::get<InsertMsg>(f2.envelopes[0].payload).ref,
            (ObjectId{1, 4}));
  wire::WireWriter w2;
  wire::Encode(w2, f2);
  EXPECT_EQ(w2.data(), w.data());
}

TEST(WireEngineFrameTest, StepBuildAndQueryRepliesRoundTrip) {
  wire::StepReplyFrame step;
  step.seq = 11;
  step.next_event_time = 345;
  step.handled = 6;
  step.staged.push_back(Envelope{1, 0, PinReleaseMsg{ObjectId{0, 9}}});
  wire::WireWriter ws;
  wire::Encode(ws, step);
  wire::WireReader rs(ws.data());
  wire::StepReplyFrame step2;
  ASSERT_TRUE(wire::Decode(rs, step2));
  EXPECT_TRUE(rs.exhausted());
  EXPECT_EQ(step2.seq, 11u);
  EXPECT_EQ(step2.next_event_time, 345);
  EXPECT_EQ(step2.handled, 6u);
  ASSERT_EQ(step2.staged.size(), 1u);

  wire::BuildOpFrame op;
  op.seq = 3;
  op.time = 50;
  op.op = wire::BuildOpKind::kWireSource;
  op.a = ObjectId{0, 1};
  op.b = ObjectId{2, 3};
  op.slot = 1;
  op.n = 4;
  wire::WireWriter wo;
  wire::Encode(wo, op);
  wire::WireReader ro(wo.data());
  wire::BuildOpFrame op2;
  ASSERT_TRUE(wire::Decode(ro, op2));
  EXPECT_EQ(op2.op, wire::BuildOpKind::kWireSource);
  EXPECT_EQ(op2.a, (ObjectId{0, 1}));
  EXPECT_EQ(op2.b, (ObjectId{2, 3}));
  EXPECT_EQ(op2.slot, 1u);
  EXPECT_EQ(op2.n, 4u);

  wire::BuildReplyFrame build;
  build.seq = 3;
  build.result = ObjectId{2, 8};
  build.next_event_time = 60;
  wire::WireWriter wb;
  wire::Encode(wb, build);
  wire::WireReader rb(wb.data());
  wire::BuildReplyFrame build2;
  ASSERT_TRUE(wire::Decode(rb, build2));
  EXPECT_EQ(build2.result, (ObjectId{2, 8}));

  wire::QueryFrame query;
  query.seq = 21;
  query.time = 900;
  wire::WireWriter wq;
  wire::Encode(wq, query);
  wire::WireReader rq(wq.data());
  wire::QueryFrame query2;
  ASSERT_TRUE(wire::Decode(rq, query2));
  EXPECT_EQ(query2.seq, 21u);
  EXPECT_EQ(query2.time, 900);

  wire::QueryReplyFrame census;
  census.seq = 21;
  census.objects = 5;
  census.reclaimed = 7;
  census.traces_started = 2;
  census.traces_garbage = 1;
  census.traces_live = 1;
  census.trace_in_flight = true;
  census.incarnation = 3;
  census.survivors = {ObjectId{0, 1}, ObjectId{0, 4}};
  wire::WireWriter wc;
  wire::Encode(wc, census);
  wire::WireReader rc(wc.data());
  wire::QueryReplyFrame census2;
  ASSERT_TRUE(wire::Decode(rc, census2));
  EXPECT_EQ(census2.objects, 5u);
  EXPECT_EQ(census2.reclaimed, 7u);
  EXPECT_TRUE(census2.trace_in_flight);
  EXPECT_EQ(census2.incarnation, 3u);
  EXPECT_EQ(census2.survivors, (std::vector<ObjectId>{{0, 1}, {0, 4}}));
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzing with a fixed budget.

/// One seeded mutation: bit flips, a truncation, a u32 forced to
/// 0xFFFFFFFF (a count, wherever one sits), a prefix spliced onto a tail of
/// `donor`, or a run of random bytes.
std::vector<std::uint8_t> Mutate(const std::vector<std::uint8_t>& bytes,
                                 const std::vector<std::uint8_t>& donor,
                                 Rng& rng) {
  std::vector<std::uint8_t> m = bytes;
  switch (rng.NextBelow(5)) {
    case 0: {
      const std::uint64_t flips = 1 + rng.NextBelow(3);
      for (std::uint64_t i = 0; i < flips; ++i) {
        m[rng.NextBelow(m.size())] ^=
            static_cast<std::uint8_t>(1u << rng.NextBelow(8));
      }
      break;
    }
    case 1:
      m.resize(rng.NextBelow(m.size()));
      break;
    case 2: {
      const std::size_t at = rng.NextBelow(m.size() - 3);
      std::fill_n(m.begin() + static_cast<std::ptrdiff_t>(at), 4, 0xFF);
      break;
    }
    case 3: {
      m.resize(rng.NextBelow(m.size() + 1));
      const std::size_t from = rng.NextBelow(donor.size() + 1);
      m.insert(m.end(), donor.begin() + static_cast<std::ptrdiff_t>(from),
               donor.end());
      break;
    }
    default: {
      const std::size_t at = rng.NextBelow(m.size());
      const std::size_t n =
          std::min<std::size_t>(1 + rng.NextBelow(8), m.size() - at);
      for (std::size_t i = 0; i < n; ++i) {
        m[at + i] = static_cast<std::uint8_t>(rng.Next());
      }
      break;
    }
  }
  return m;
}

/// Calls `check` on every truncation of `bytes`, on every single-bit flip,
/// and on 0xFFFFFFFF written at every offset, so every count field meets a
/// hostile count.
template <class Check>
void ForEachSystematicMutant(const std::vector<std::uint8_t>& bytes,
                             Check check) {
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    check(std::vector<std::uint8_t>(
        bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(n)));
  }
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    std::vector<std::uint8_t> m = bytes;
    m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    check(m);
  }
  for (std::size_t at = 0; at + 4 <= bytes.size(); ++at) {
    std::vector<std::uint8_t> m = bytes;
    std::fill_n(m.begin() + static_cast<std::ptrdiff_t>(at), 4, 0xFF);
    check(m);
  }
}

/// Tallies fuzz outcomes and keeps the first mutant that broke the rule.
struct FuzzTally {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t broken = 0;
  std::string first_broken;

  void Break(const std::string& what) {
    if (broken++ == 0) first_broken = what;
  }
};

TEST(WireFuzzTest, FrameMutantsFailOrRoundTripExactly) {
  constexpr int kRandomMutantsPerRecord = 30000;
  const std::vector<Sample> samples = GoldenSamples();
  Rng rng(20261017);
  FuzzTally tally;
  for (const Sample& sample : samples) {
    const auto check = [&](const std::vector<std::uint8_t>& mutant) {
      std::vector<std::uint8_t> again;
      if (!sample.round_trip(mutant, again)) {
        ++tally.rejected;
        return;
      }
      ++tally.accepted;
      if (again != mutant) tally.Break(sample.name + " " + Hex(mutant));
    };
    ForEachSystematicMutant(sample.bytes, check);
    for (int trial = 0; trial < kRandomMutantsPerRecord; ++trial) {
      const Sample& donor = samples[rng.NextBelow(samples.size())];
      check(Mutate(sample.bytes, donor.bytes, rng));
    }
  }
  EXPECT_EQ(tally.broken, 0u) << "decoded but re-encoded differently: "
                              << tally.first_broken;
  // Both outcomes must occur, or the budget measured nothing.
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

/// A small world whose site 1 has live and freed slots, persistent roots,
/// inrefs with sources, outrefs, and the outsets of a suspected garbage
/// cycle (back tracing off, so the cycle stays suspected).
std::unique_ptr<System> SmallWorld() {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.enable_back_tracing = false;
  auto system = std::make_unique<System>(3, config);
  const ObjectId root = system->NewObject(1, 3);
  system->SetPersistentRoot(root);
  const ObjectId kept = system->NewObject(1, 1);
  system->Wire(root, 0, kept);
  system->Wire(root, 1, system->NewObject(2, 0));
  system->Wire(kept, 0, system->NewObject(0, 0));
  const ObjectId holder = system->NewObject(0, 1);
  system->SetPersistentRoot(holder);
  system->Wire(holder, 0, kept);
  system->NewObject(1, 2);  // unreachable: its slot is freed by the sweep
  workload::BuildCycle(*system, {.sites = 3, .objects_per_site = 2});
  system->RunRounds(6);
  return system;
}

/// A snapshot of the small world's site 1.
SiteSnapshot CaptureSmallSite() {
  return CaptureSiteSnapshot(SmallWorld()->site(1), /*incarnation=*/2);
}

TEST(SnapshotGoldenTest, SmallSiteEncodesToItsPinnedBytes) {
  // A change to these figures is a change of the snapshot format, and
  // needs a kSnapshotVersion bump.
  const std::vector<std::uint8_t> bytes =
      EncodeSiteSnapshot(CaptureSmallSite());
  EXPECT_EQ(bytes.size(), 377u) << Hex(bytes);
  EXPECT_EQ(Fnv1a(bytes), 0xf3e9b2e94c075c1fULL) << Hex(bytes);
}

/// What a replacement site process does with a snapshot it accepted:
/// restore it into a fresh Site, re-announce the outrefs, allocate, as the
/// next build operation would, and run the next local trace over it all.
void RestoreIntoFreshSite(const SiteSnapshot& snapshot) {
  SiteAgentTransport agent(snapshot.site, /*failure_detection=*/false);
  Site site(snapshot.site, agent, CollectorConfig{});
  ApplySiteSnapshot(site, snapshot);
  site.ReannounceOutrefs();
  (void)site.heap().Allocate(1);
  site.StartLocalTrace();
}

TEST(WireFuzzTest, SnapshotMutantsFailOrRestoreCleanly) {
  constexpr int kRandomMutants = 150000;
  const SiteSnapshot captured = CaptureSmallSite();
  const std::vector<std::uint8_t> bytes = EncodeSiteSnapshot(captured);
  Rng rng(20261018);
  FuzzTally tally;
  const auto check = [&](const std::vector<std::uint8_t>& mutant) {
    SiteSnapshot decoded;
    if (!DecodeSiteSnapshot(mutant, decoded)) {
      ++tally.rejected;
      return;
    }
    ++tally.accepted;
    if (EncodeSiteSnapshot(decoded) != mutant) {
      tally.Break("re-encoded differently: " + Hex(mutant));
      return;
    }
    // The host restores a snapshot only into the site it names.
    if (decoded.site != captured.site) return;
    try {
      RestoreIntoFreshSite(decoded);
    } catch (const InvariantViolation& e) {
      tally.Break(std::string(e.what()) + ": " + Hex(mutant));
    }
  };
  ForEachSystematicMutant(bytes, check);
  for (int trial = 0; trial < kRandomMutants; ++trial) {
    check(Mutate(bytes, bytes, rng));
  }
  EXPECT_EQ(tally.broken, 0u) << tally.first_broken;
  EXPECT_GT(tally.accepted, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

// ---------------------------------------------------------------------------
// Snapshot consistency: well-formed bytes that would corrupt the restored
// site are rejected like unreadable ones, one rule per test.

/// Encodes, decodes and (when accepted) restores; true when accepted.
bool Restores(const SiteSnapshot& snapshot) {
  SiteSnapshot decoded;
  if (!DecodeSiteSnapshot(EncodeSiteSnapshot(snapshot), decoded)) {
    return false;
  }
  RestoreIntoFreshSite(decoded);
  return true;
}

std::uint32_t FirstDeadSlot(const SiteSnapshot& snapshot) {
  for (std::uint32_t slot = 0; slot < snapshot.heap.slots.size(); ++slot) {
    if (!snapshot.heap.slots[slot].live) return slot;
  }
  ADD_FAILURE() << "the captured heap has no dead slot";
  return 0;
}

/// True when two tables hold the same keys with the same durable fields
/// (each entry's Fields list).
template <class Map>
bool SameDurableEntries(const Map& a, const Map& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) {
                      return x.first == y.first &&
                             Fields(x.second) == Fields(y.second);
                    });
}

TEST(SnapshotRoundTripTest, RestoredSiteHoldsTheCapturedTablesUnpinned) {
  const std::unique_ptr<System> system = SmallWorld();
  Site& original = system->site(1);
  ASSERT_FALSE(original.tables().inrefs().empty());
  ASSERT_FALSE(original.tables().outrefs().empty());
  ASSERT_FALSE(original.back_info().inref_outsets.empty());
  const ObjectId pinned = original.tables().outrefs().begin()->first;
  original.PinOutref(pinned);
  SiteSnapshot captured = CaptureSiteSnapshot(original, /*incarnation=*/2);
  SiteSnapshot decoded;
  ASSERT_TRUE(DecodeSiteSnapshot(EncodeSiteSnapshot(captured), decoded));

  // The captured maps still hold the pin; the bytes never carry one.
  for (const SiteSnapshot* snapshot : {&captured, &decoded}) {
    SiteAgentTransport agent(original.id(), /*failure_detection=*/false);
    Site restored(original.id(), agent, CollectorConfig{});
    ApplySiteSnapshot(restored, *snapshot);
    EXPECT_TRUE(SameDurableEntries(restored.tables().inrefs(),
                                   original.tables().inrefs()));
    EXPECT_TRUE(SameDurableEntries(restored.tables().outrefs(),
                                   original.tables().outrefs()));
    for (const auto& [ref, entry] : restored.tables().outrefs()) {
      EXPECT_EQ(entry.pin_count, 0) << ref;
    }
    EXPECT_EQ(restored.back_info(), original.back_info());
  }
  EXPECT_EQ(original.tables().FindOutref(pinned)->pin_count, 1);
  original.UnpinOutref(pinned);
}

/// Moves `map`'s entry from key `from` to key `to`, keeping the map sorted.
template <class Map, class Key>
void Rekey(Map& map, Key from, Key to) {
  auto entry = map.at(from);
  map.erase(from);
  ASSERT_TRUE(map.emplace(to, std::move(entry)).second);
}

TEST(SnapshotRulesTest, CapturedSnapshotRestores) {
  const SiteSnapshot snapshot = CaptureSmallSite();
  ASSERT_FALSE(snapshot.heap.free_slots.empty());
  ASSERT_FALSE(snapshot.heap.persistent_roots.empty());
  ASSERT_FALSE(snapshot.inrefs.empty());
  ASSERT_FALSE(snapshot.outrefs.empty());
  ASSERT_FALSE(snapshot.inref_outsets.empty());
  EXPECT_TRUE(Restores(snapshot));
}

TEST(SnapshotRulesTest, FreeSlotPastTheEndIsRejected) {
  // Restored verbatim, this slot sends the next Allocate past the heap's
  // record table.
  SiteSnapshot snapshot = CaptureSmallSite();
  snapshot.heap.free_slots.push_back(1u << 20);
  EXPECT_FALSE(Restores(snapshot));
}

TEST(SnapshotRulesTest, FreeSlotNamingALiveSlotIsRejected) {
  // Restored verbatim, the next Allocate hands the root's id out again.
  SiteSnapshot snapshot = CaptureSmallSite();
  snapshot.heap.free_slots.push_back(static_cast<std::uint32_t>(
      Heap::SlotOfIndex(snapshot.heap.persistent_roots.front().index)));
  EXPECT_FALSE(Restores(snapshot));
}

TEST(SnapshotRulesTest, FreeSlotListedTwiceIsRejected) {
  SiteSnapshot snapshot = CaptureSmallSite();
  snapshot.heap.free_slots.push_back(snapshot.heap.free_slots.front());
  EXPECT_FALSE(Restores(snapshot));
}

TEST(SnapshotRulesTest, DeadSlotHoldingReferencesIsRejected) {
  SiteSnapshot snapshot = CaptureSmallSite();
  snapshot.heap.slots[FirstDeadSlot(snapshot)].slots.push_back(ObjectId{0, 1});
  EXPECT_FALSE(Restores(snapshot));
}

TEST(SnapshotRulesTest, SlotAtTheLastGenerationIsRejected) {
  // Restored verbatim, the next Allocate hands this slot out, and the sweep
  // that frees the object would exhaust the slot's generation counter.
  SiteSnapshot snapshot = CaptureSmallSite();
  snapshot.heap.slots[snapshot.heap.free_slots.back()].generation =
      std::numeric_limits<std::uint32_t>::max();
  EXPECT_FALSE(Restores(snapshot));
}

TEST(SnapshotRulesTest, PersistentRootMustNameALiveLocalObject) {
  const SiteSnapshot captured = CaptureSmallSite();
  const ObjectId root = captured.heap.persistent_roots.front();
  // Another site's object, a later generation, a dead slot, no slot at all.
  const ObjectId bad_roots[] = {
      ObjectId{root.site + 1, root.index},
      ObjectId{root.site, root.index + (1ULL << 32)},
      ObjectId{root.site, FirstDeadSlot(captured) + 1ULL},
      ObjectId{root.site, 0},
  };
  for (const ObjectId bad : bad_roots) {
    SCOPED_TRACE(::testing::PrintToString(bad));
    SiteSnapshot snapshot = captured;
    snapshot.heap.persistent_roots.push_back(bad);
    EXPECT_FALSE(Restores(snapshot));
  }
}

TEST(SnapshotRulesTest, PersistentRootListedTwiceIsRejected) {
  // Restored verbatim, the root's record carries one root bit for two
  // list entries: removing the root once would let the object be freed
  // while the list still names it.
  SiteSnapshot snapshot = CaptureSmallSite();
  snapshot.heap.persistent_roots.push_back(
      snapshot.heap.persistent_roots.front());
  EXPECT_FALSE(Restores(snapshot));
}

TEST(SnapshotRulesTest, UnflaggedInrefMustNameALiveLocalObject) {
  const SiteSnapshot captured = CaptureSmallSite();
  const ObjectId dead{captured.site, FirstDeadSlot(captured) + 1ULL};
  const ObjectId remote{captured.site + 1, dead.index};
  SiteSnapshot snapshot = captured;
  Rekey(snapshot.inrefs, captured.inrefs.begin()->first, dead);
  snapshot.inrefs.at(dead).garbage_flagged = false;
  EXPECT_FALSE(Restores(snapshot));
  Rekey(snapshot.inrefs, dead, remote);
  EXPECT_FALSE(Restores(snapshot));
  // A flagged inref outlives its swept object until its sources drop it.
  Rekey(snapshot.inrefs, remote, dead);
  snapshot.inrefs.at(dead).garbage_flagged = true;
  EXPECT_TRUE(Restores(snapshot));
}

TEST(SnapshotRulesTest, LiveSlotMustNotNameADeadLocalObject) {
  // Restored verbatim, the next local trace reaches the root's slot and asks
  // the heap for an object it does not hold.
  const SiteSnapshot captured = CaptureSmallSite();
  const ObjectId root = captured.heap.persistent_roots.front();
  SiteSnapshot snapshot = captured;
  snapshot.heap.slots[Heap::SlotOfIndex(root.index)].slots.push_back(
      ObjectId{captured.site, FirstDeadSlot(captured) + 1ULL});
  EXPECT_FALSE(Restores(snapshot));
}

TEST(SnapshotRulesTest, LiveSlotNamingARemoteObjectNeedsAnOutref) {
  // Restored verbatim, the next local trace meets a remote reference the
  // outref table does not list.
  const SiteSnapshot captured = CaptureSmallSite();
  SiteSnapshot snapshot = captured;
  const ObjectId unlisted{captured.site + 1, 1ULL << 20};
  for (HeapImage::SlotImage& slot : snapshot.heap.slots) {
    if (slot.live) slot.slots.push_back(unlisted);
  }
  EXPECT_FALSE(Restores(snapshot));
}

TEST(SnapshotRulesTest, InrefSourceMustNameAnotherSite) {
  SiteSnapshot snapshot = CaptureSmallSite();
  auto& sources = snapshot.inrefs.begin()->second.sources;
  ASSERT_FALSE(sources.empty());
  Rekey(sources, sources.begin()->first, snapshot.site);
  EXPECT_FALSE(Restores(snapshot));
}

TEST(SnapshotRulesTest, OutrefMustNameAnotherSite) {
  const SiteSnapshot captured = CaptureSmallSite();
  const ObjectId first = captured.outrefs.begin()->first;
  for (const SiteId bad : {captured.site, kInvalidSite}) {
    SiteSnapshot snapshot = captured;
    Rekey(snapshot.outrefs, first, ObjectId{bad, first.index});
    EXPECT_FALSE(Restores(snapshot)) << "outref site " << bad;
  }
}

}  // namespace
}  // namespace dgc
