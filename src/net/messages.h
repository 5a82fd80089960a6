// Message vocabulary of the distributed protocols.
//
// Everything the sites say to each other is one of these structs, carried in
// an Envelope by the simulated Network. The first group implements the
// inter-site reference-listing protocol of Section 2 (insert/update), the
// second group the back-tracing protocol of Section 4, the third group the
// mutator's RPCs (whose reference-carrying fields drive the transfer and
// insert barriers of Section 6), and the last group the baseline collectors
// used as comparators (Section 7).
#pragma once

#include <cstdint>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/distance.h"
#include "common/ids.h"

namespace dgc {

// ---------------------------------------------------------------------------
// Reference-listing protocol (Section 2).

/// Sent by a site that newly holds reference `ref` to the owner of `ref`:
/// "add me (the envelope's sender) to the source list of inref `ref`".
/// `pinned` says the sender holds a clean outref pinned by the insert
/// barrier until the owner acknowledges; only then does the owner ack.
/// `distance` is the conservative 1 for fresh mutator-held references
/// (Section 3) or the sender's current outref distance for recovery-time
/// re-registrations, which hold no pin.
struct InsertMsg {
  ObjectId ref;
  bool pinned = false;
  Distance distance = 1;
};

/// Owner's acknowledgement of a pinned InsertMsg, sent back to its sender,
/// releasing the insert-barrier pin.
struct InsertAckMsg {
  ObjectId ref;
};

/// One outref's worth of news in an update message: either the source no
/// longer holds the reference (removed) or its estimated distance changed.
struct UpdateEntry {
  ObjectId ref;
  bool removed = false;
  Distance distance = kDistanceInfinity;
};

/// Sent by a source site to a target site after a local trace (Section 2):
/// dropped outrefs and changed outref distances.
struct UpdateMsg {
  std::vector<UpdateEntry> entries;
};

// ---------------------------------------------------------------------------
// Back tracing (Section 4).

enum class BackResult : std::uint8_t { kGarbage = 0, kLive = 1 };

/// BackStepLocal request: "run a local back step on your outref `ref`",
/// sent by the owner of inref `ref` to one of its source sites. This is the
/// only back-trace message that crosses sites, so each traversed inter-site
/// reference costs exactly one call plus one reply (the 2E term of §4.6).
struct BackLocalCallMsg {
  TraceId trace;
  ObjectId ref;
  FrameId caller;
};

/// BackStepRemote request: "run a remote back step on inref `ref`". Local
/// steps stay on one site, so this is always a self-delivery; it exists as a
/// message only to keep every back step asynchronous and uniformly ordered.
struct BackRemoteCallMsg {
  TraceId trace;
  ObjectId ref;
  FrameId caller;
};

/// Reply to either back-step call. Participants accumulate the ids of all
/// sites reached in the subtree so the initiator can run the report phase.
struct BackReplyMsg {
  TraceId trace;
  FrameId to;
  BackResult result = BackResult::kGarbage;
  std::vector<SiteId> participants;
};

/// Report-phase message from the initiator to every participant (§4.5):
/// on Garbage, flag the inrefs visited by `trace`; on Live, clear the marks.
struct BackReportMsg {
  TraceId trace;
  BackResult outcome = BackResult::kGarbage;
};

/// Multi-target back call: every BackStepLocal request queued for the same
/// destination site during one simulated instant rides one payload instead
/// of one message per (inref, source-site) pair. The targets may belong to
/// different frames and even different traces; the receiver handles each
/// exactly as a standalone BackLocalCallMsg. Batches of one are sent as the
/// plain message, so the per-trace counts of §4.6 are unchanged.
struct BackCallBatchMsg {
  std::vector<BackLocalCallMsg> calls;
};

// ---------------------------------------------------------------------------
// Mutator RPCs (Section 6).
//
// A mutator session "at" a home site operates on remote objects through
// read/write RPCs. Every reference that arrives at a site in one of these
// messages passes through the transfer barrier, and newly created outrefs
// follow the insert barrier (§6.1).

/// Read slot `slot` of object `target`; the reference `target` itself is
/// transferred to its owner (transfer barrier case 1 of §6.1.2).
struct MutatorReadMsg {
  std::uint64_t session = 0;
  ObjectId target;
  std::uint32_t slot = 0;
};

/// Reply carrying the read reference back to the session's home site, where
/// it is received as a transferred reference (cases 1-4 of §6.1.2).
struct MutatorReadReplyMsg {
  std::uint64_t session = 0;
  ObjectId value;  // invalid when the slot was null
};

/// Write `value` into slot `slot` of `target`. Both `target` and `value`
/// arrive at the owner of `target` and pass through the barriers there.
struct MutatorWriteMsg {
  std::uint64_t session = 0;
  ObjectId target;
  std::uint32_t slot = 0;
  ObjectId value;  // invalid to clear the slot
};

/// Completion of a MutatorWriteMsg (sent only after any insert barrier the
/// write triggered has been acknowledged, modelling synchronous inserts).
struct MutatorWriteAckMsg {
  std::uint64_t session = 0;
};

// ---------------------------------------------------------------------------
// Client-caching transactions (the Thor model of §6.1.1's last paragraph:
// barriers are applied by checking the transaction's read-write log at
// commit time).

/// Fetch an object's contents into a client cache. The reference `target`
/// arrives at its owner: transfer barrier.
struct FetchMsg {
  std::uint64_t session = 0;
  ObjectId target;
};

/// The fetched copy: the object's reference slots, cached verbatim.
struct FetchReplyMsg {
  std::uint64_t session = 0;
  ObjectId target;
  std::vector<ObjectId> slots;
};

/// One buffered write of a transaction.
struct CommitWrite {
  ObjectId target;
  std::uint32_t slot = 0;
  ObjectId value;  // invalid clears the slot
};

/// The per-owner slice of a transaction's write log, shipped at commit.
/// Every `target` and `value` reference arrives at the owner: the commit-
/// time barrier check of §6.1.1.
struct CommitMsg {
  std::uint64_t session = 0;
  std::vector<CommitWrite> writes;
};

/// Owner's acknowledgement that its slice is applied (after any insert
/// barriers its new references required).
struct CommitAckMsg {
  std::uint64_t session = 0;
};

/// Releases one sender-retention pin (Section 2: "the sender Q retains its
/// outref for c until R is known to have received the insert message").
/// Sent by the site that received reference `ref` in a read reply or fetch,
/// back to the site that served it, once the reference is safely recorded
/// (or no longer cached).
struct PinReleaseMsg {
  ObjectId ref;
};

// ---------------------------------------------------------------------------
// Baseline collectors (Section 7 comparators).

/// Central-service baseline (Beckerle & Ekanadham / Ladin & Liskov): each
/// site ships its full inref-to-outref reachability to a fixed service site.
/// Note the size: one entry per inref with its complete outset — the space
/// and bandwidth the paper's scheme avoids by computing insets for
/// *suspected* iorefs only.
struct ReachabilitySummaryMsg {
  struct InrefInfo {
    ObjectId inref;
    std::vector<ObjectId> outset;  // outrefs locally reachable from it
  };
  std::uint64_t epoch = 0;
  std::vector<InrefInfo> inrefs;
  /// Outrefs reachable from this site's persistent/application roots.
  std::vector<ObjectId> root_reachable_outrefs;
};

/// Service -> site: these inrefs of yours are part of inter-site garbage;
/// flag them (the next local traces reclaim the cycles).
struct CondemnMsg {
  std::uint64_t epoch = 0;
  std::vector<ObjectId> inrefs;
};

/// Control-plane message of the coordinated global mark-sweep baseline.
struct GlobalGcControlMsg {
  enum class Phase : std::uint8_t {
    kStartMark,   // coordinator -> site: begin marking from your roots
    kProbe,       // coordinator -> site: any marking since the last probe?
    kProbeReply,  // site -> coordinator: value = work since last probe
    kSweep,       // coordinator -> site: marking done everywhere, sweep
    kSweepDone,   // site -> coordinator: value = objects swept
  };
  std::uint64_t epoch = 0;
  Phase phase = Phase::kStartMark;
  std::uint64_t value = 0;
};

/// Cross-site gray propagation for the global mark-sweep baseline: "these
/// objects of yours are reachable; mark them".
struct GlobalGcGrayMsg {
  std::uint64_t epoch = 0;
  std::vector<ObjectId> targets;
};

/// Hughes-style timestamp propagation (one entry per outref) plus the
/// sender's local-trace clock, used to compute the global threshold.
struct TimestampUpdateMsg {
  struct Entry {
    ObjectId ref;
    std::int64_t stamp = 0;
  };
  std::vector<Entry> entries;
  std::int64_t sender_trace_clock = 0;
};

/// Object migration for the migration-based cycle collector (ML95 baseline):
/// the payload carries whole objects (identity plus reference slots).
struct MigrateMsg {
  struct MovedObject {
    ObjectId id;
    std::vector<ObjectId> refs;
  };
  std::vector<MovedObject> objects;
};

/// Reference patch after a migration: every site holding `old_id` must
/// rewrite it to `new_id` (the cost the paper charges migration schemes
/// for "updating references to migrated objects").
struct PatchMsg {
  ObjectId old_id;
  ObjectId new_id;
};

// ---------------------------------------------------------------------------

using Payload =
    std::variant<InsertMsg, InsertAckMsg, UpdateMsg, BackLocalCallMsg,
                 BackRemoteCallMsg, BackReplyMsg, BackReportMsg,
                 BackCallBatchMsg, MutatorReadMsg,
                 MutatorReadReplyMsg, MutatorWriteMsg, MutatorWriteAckMsg,
                 FetchMsg, FetchReplyMsg, CommitMsg, CommitAckMsg,
                 PinReleaseMsg, GlobalGcControlMsg, GlobalGcGrayMsg,
                 TimestampUpdateMsg, MigrateMsg, PatchMsg,
                 ReachabilitySummaryMsg, CondemnMsg>;

inline constexpr std::size_t kPayloadKinds = std::variant_size_v<Payload>;

/// The kinds only the Section 7 baseline collectors send. A baseline
/// handles them in process through its own extension handler; no site
/// process handles one, so the socket coordinator refuses them.
template <typename T>
inline constexpr bool kBaselineOnly =
    std::is_same_v<T, GlobalGcControlMsg> ||
    std::is_same_v<T, GlobalGcGrayMsg> ||
    std::is_same_v<T, TimestampUpdateMsg> || std::is_same_v<T, MigrateMsg> ||
    std::is_same_v<T, PatchMsg> || std::is_same_v<T, ReachabilitySummaryMsg> ||
    std::is_same_v<T, CondemnMsg>;

[[nodiscard]] inline bool IsBaselineOnly(const Payload& payload) {
  return std::visit(
      [](const auto& msg) {
        return kBaselineOnly<std::decay_t<decltype(msg)>>;
      },
      payload);
}

/// Human-readable payload-type name, indexed by Payload::index().
const char* PayloadKindName(std::size_t index);

/// A message in flight.
struct Envelope {
  SiteId from = kInvalidSite;
  SiteId to = kInvalidSite;
  Payload payload;
};

}  // namespace dgc
