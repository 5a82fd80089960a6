// The back-tracing engine (Section 4) — the paper's primary contribution.
//
// A back trace checks whether a suspected object is reachable from any root
// by tracing the reference graph *backwards*, leaping between iorefs:
//
//   * a local step goes from an outref to the inrefs in its inset (computed
//     by the local trace, Section 5); it stays on one site;
//   * a remote step goes from an inref to the corresponding outrefs on its
//     source sites; it crosses sites.
//
// Both steps are asynchronous calls carried as messages; an activation frame
// per call holds the return address, a pending count and the accumulated
// result, exactly as Section 4.4 describes. Reaching a clean ioref answers
// Live; a trace that closes over only suspected iorefs answers Garbage, and
// the report phase (Section 4.5) flags every visited inref so the next local
// traces reclaim the cycle.
//
// One deliberate deviation from the paper's pseudocode: a frame replies only
// after all its children reply, rather than short-circuiting on the first
// Live. Short-circuiting with parallel branches can strand participants
// outside the initiator's participant set, leaking visited marks; waiting
// costs latency only — the message count (2E + P, Section 4.6) is identical.
// Stranded marks from lost messages are still reclaimed via report_timeout.
//
// Two mechanisms share the traces' work (both always on, both preserving
// the verdicts the seed engine computes):
//
//   * trace coalescing: a call that lands on an ioref already visited by a
//     *senior* concurrent trace (smaller TraceId) does not re-traverse the
//     shared region — it parks as a waiter on the senior trace's visit
//     record and is answered with the senior's verdict when its report
//     arrives (Live if the record expires instead). Juniors defer only to
//     seniors, so waiting chains are acyclic and cannot deadlock;
//   * call batching: inter-site back calls issued in one simulated instant
//     to the same destination ride a single BackCallBatchMsg.
//
// What keeps a settled suspect from restarting is §4.3's back threshold:
// every visit raises the ioref's threshold by back_threshold_increment, and
// the trigger scan skips an outref whose distance does not exceed it (or
// that a trace is visiting right now).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "backinfo/site_back_info.h"
#include "backtrace/slab_table.h"
#include "common/config.h"
#include "common/counters.h"
#include "common/ids.h"
#include "net/transport.h"
#include "refs/tables.h"
#include "sim/scheduler.h"

namespace dgc {

struct BackTracerStats {
  std::uint64_t traces_started = 0;
  std::uint64_t traces_completed_garbage = 0;
  std::uint64_t traces_completed_live = 0;
  std::uint64_t frames_created = 0;
  std::uint64_t calls_handled = 0;
  std::uint64_t clean_rule_hits = 0;  // frames forced Live by the clean rule
  std::uint64_t timeouts = 0;
  std::uint64_t inrefs_flagged = 0;
  std::uint64_t records_expired = 0;
  /// Visit records scrubbed because their trace's initiator restarted (the
  /// report can never arrive; waiting out report_timeout would be dead time).
  std::uint64_t records_scrubbed = 0;
  // Trace coalescing.
  std::uint64_t branches_coalesced = 0;  // calls parked on a senior trace
  std::uint64_t waiters_resolved = 0;    // parked calls answered Garbage
  std::uint64_t waiters_requeued = 0;    // parked calls re-dispatched on Live
  // Call batching.
  std::uint64_t calls_batched = 0;  // back calls that rode a multi-call batch
  std::uint64_t call_batches_sent = 0;
  // Failure-detector parking (zero unless the detector is enabled).
  std::uint64_t calls_parked = 0;    // remote steps held for a suspect peer
  std::uint64_t calls_unparked = 0;  // parked calls resumed on heal
  /// Always zero, and on no list: bench/e2e/bench_e2e.cc still reads them
  /// for its backtrace.cache_hit_frac column. They go when that column does.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

auto Counters(Is<BackTracerStats> auto& s) {
  return std::tuple{
      Counter{"traces_started", s.traces_started},
      Counter{"traces_completed_garbage", s.traces_completed_garbage},
      Counter{"traces_completed_live", s.traces_completed_live},
      Counter{"frames_created", s.frames_created},
      Counter{"calls_handled", s.calls_handled},
      Counter{"clean_rule_hits", s.clean_rule_hits},
      Counter{"timeouts", s.timeouts},
      Counter{"inrefs_flagged", s.inrefs_flagged},
      Counter{"records_expired", s.records_expired},
      Counter{"records_scrubbed", s.records_scrubbed},
      Counter{"branches_coalesced", s.branches_coalesced},
      Counter{"waiters_resolved", s.waiters_resolved},
      Counter{"waiters_requeued", s.waiters_requeued},
      Counter{"calls_batched", s.calls_batched},
      Counter{"call_batches_sent", s.call_batches_sent},
      Counter{"calls_parked", s.calls_parked},
      Counter{"calls_unparked", s.calls_unparked}};
}
static_assert(ListsEveryMember<BackTracerStats>(
    sizeof(BackTracerStats::cache_hits) +
    sizeof(BackTracerStats::cache_misses)));

/// Outcome of a completed back trace, delivered to the initiator's observer.
struct TraceOutcome {
  TraceId trace;
  ObjectId start_outref;
  BackResult result = BackResult::kGarbage;
  SimTime started_at = 0;
  SimTime completed_at = 0;
  std::size_t participants = 0;
};

class BackTracer {
 public:
  /// `back_info` yields the site's *current* back information (the old copy
  /// while a local trace is in flight, per Section 6.2). `is_root_object`
  /// answers whether a local object is a persistent or application root.
  BackTracer(SiteId site, RefTables& tables, Transport& transport,
             Scheduler& scheduler,
             std::function<const SiteBackInfo&()> back_info,
             std::function<bool(ObjectId)> is_root_object);

  BackTracer(const BackTracer&) = delete;
  BackTracer& operator=(const BackTracer&) = delete;

  /// Scans suspected outrefs and starts a back trace from each whose
  /// estimated distance exceeds its back threshold (Section 4.3). Called by
  /// the site after applying a local trace. Returns the number started.
  std::size_t MaybeStartTraces();

  /// Unconditionally starts a back trace from the given suspected outref.
  TraceId StartTrace(ObjectId outref_ref);

  // Message handlers, dispatched by the owning site.
  void HandleLocalCall(const Envelope& envelope, const BackLocalCallMsg& msg);
  void HandleRemoteCall(const Envelope& envelope, const BackRemoteCallMsg& msg);
  void HandleCallBatch(const Envelope& envelope, const BackCallBatchMsg& msg);
  void HandleReply(const BackReplyMsg& msg);
  void HandleReport(const BackReportMsg& msg);

  /// The clean rule (Section 6.4): an ioref was just cleaned; every trace
  /// with a call active on it must answer Live.
  void OnIorefCleaned(IorefKind kind, ObjectId ref);

  /// The failure detector reports `peer` healed: re-dispatches every back
  /// call parked on it (for frames still alive) and re-arms the call
  /// timeouts that were deferred while the frames had parked children.
  void OnPeerRecovered(SiteId peer);

  /// The peer came back as a *new incarnation*: every activation frame its
  /// old process owned is gone for certain, so no trace it initiated can
  /// ever finish or report. Drops this site's frames, parked/batched calls
  /// and visit records belonging to those traces (resolving coalesced
  /// waiters Live — always safe, Section 4.6) so the suspects their visited
  /// marks cover become traceable again immediately instead of after
  /// report_timeout. Called before OnPeerRecovered when the failure
  /// detector (or the socket coordinator's restart handshake) reports the
  /// heal was a replacement process.
  void OnPeerRestarted(SiteId peer);

  /// Expires visit records whose trace outcome never arrived (crashed
  /// initiator / lost report), assuming Live per Section 4.6.
  void ExpireStaleRecords();

  /// Models a crash-restart of the hosting site: activation frames, the
  /// per-trace visit records and queued outbound calls are volatile and
  /// vanish (visited marks on the persistent iorefs are cleared — equivalent
  /// to recovery-time scrubbing); peers waiting on this site's replies
  /// recover via their call timeouts, which safely assume Live (Section
  /// 4.6).
  void DropVolatileState();

  /// Observer invoked on completion of traces this site initiated.
  void set_outcome_observer(std::function<void(const TraceOutcome&)> observer) {
    outcome_observer_ = std::move(observer);
  }

  [[nodiscard]] const BackTracerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t active_frames() const { return frames_.size(); }
  [[nodiscard]] bool idle() const { return frames_.empty(); }
  /// Visit records currently held (traces whose report has not arrived).
  [[nodiscard]] std::size_t visit_record_count() const {
    return visit_records_.size();
  }
  /// Back calls currently parked on suspected peers.
  [[nodiscard]] std::size_t parked_call_count() const {
    std::size_t total = 0;
    for (const auto& [peer, calls] : parked_calls_) total += calls.size();
    return total;
  }

 private:
  struct Frame {
    std::uint64_t id = 0;
    TraceId trace;
    FrameId parent;  // kNoFrame for the trace's root frame
    IorefKind kind = IorefKind::kOutref;
    ObjectId ioref;
    int pending = 0;
    BackResult result = BackResult::kGarbage;
    std::vector<SiteId> participants;  // sorted, unique
    bool is_root = false;
    /// Children whose calls are parked on a suspected peer. While positive,
    /// the frame's call timeout defers instead of assuming Live.
    int parked = 0;
    /// The call timeout fired while children were parked; a fresh timeout
    /// is armed when the last parked call resumes.
    bool timeout_deferred = false;
    // Root-frame bookkeeping for the outcome report.
    ObjectId start_outref;
    SimTime started_at = 0;
  };

  /// A coalesced call parked on another trace's visit record. When the
  /// covering trace's report arrives with Garbage, the waiter inherits the
  /// verdict (the covering trace proved every backward path through the
  /// shared region rootless). On Live — which only proves *some* branch of
  /// the covering trace found a root, not that the waiter's region is live —
  /// the call is re-dispatched instead, so the waiting trace traverses the
  /// region itself once the covering trace's marks are cleared. Blindly
  /// inheriting Live would livelock: a live suspect's trace restarting every
  /// round could shadow a garbage cycle's trace forever.
  struct Waiter {
    TraceId trace;
    FrameId caller;
    IorefKind kind = IorefKind::kOutref;
    ObjectId ref;
  };

  /// Per-trace record of the iorefs this site marked visited, so the report
  /// phase can flag or clear them in O(|visited|). Stored in a flat vector
  /// (a site has a handful of traces in flight, never enough to amortize a
  /// hash table).
  struct VisitRecord {
    std::vector<ObjectId> inrefs;
    std::vector<ObjectId> outrefs;
    std::vector<Waiter> waiters;
    SimTime last_touched = 0;
    /// Set when a waiter's patience ran out before this trace's report
    /// arrived — evidence the report may never come (dropped messages and
    /// crashed initiators strand records).
    /// A stranded record accepts no further waiters, so traces fall back to
    /// traversing alongside the stale marks exactly as without coalescing.
    bool stranded = false;
  };

  Frame& CreateFrame(TraceId trace, FrameId parent, IorefKind kind,
                     ObjectId ioref);
  void Reply(TraceId trace, FrameId to, BackResult result,
             std::vector<SiteId> participants);
  /// Answers the frame's caller (or finishes the trace for a root frame),
  /// then erases the frame.
  void CompleteFrame(Frame& frame);
  void ArmTimeout(std::uint64_t frame_id, TraceId trace);
  void ClearRecordMarks(const VisitRecord& record, TraceId trace);

  static void AddParticipant(Frame& frame, SiteId s);

  [[nodiscard]] VisitRecord* FindRecord(TraceId trace);
  VisitRecord& TouchRecord(TraceId trace);
  /// Parks `caller` on the most senior trace (< `trace`) among `visited`
  /// that has a visit record here. Returns true if the call was deferred.
  bool TryCoalesce(const std::vector<TraceId>& visited, TraceId trace,
                   FrameId caller, IorefKind kind, ObjectId ref);
  /// Re-dispatches a deferred call as a self-message so the waiting trace
  /// traverses the region itself (handled after the covering marks clear).
  void RequeueWaiter(const Waiter& waiter);
  void ResolveWaiters(VisitRecord& record, BackResult outcome);

  void QueueBackCall(SiteId dest, const BackLocalCallMsg& call);
  void FlushPendingCalls();

  /// A remote step held back because the failure detector suspects its
  /// destination; resumed (for frames still alive) by OnPeerRecovered.
  struct ParkedCall {
    BackLocalCallMsg call;
    std::uint64_t frame_id = 0;
  };
  /// Parks a remote step instead of dispatching it into a suspected outage,
  /// where it would burn a full back_call_timeout into a spurious
  /// threshold-bumping Live verdict.
  void ParkCall(SiteId dest, const BackLocalCallMsg& call, Frame& frame);
  /// True when the next remote step to `dest` should park.
  [[nodiscard]] bool ShouldPark(SiteId dest) const;

  SiteId site_;
  RefTables& tables_;
  Transport& transport_;
  Scheduler& scheduler_;
  std::function<const SiteBackInfo&()> back_info_;
  std::function<bool(ObjectId)> is_root_object_;
  std::function<void(const TraceOutcome&)> outcome_observer_;

  SlabTable<Frame> frames_;
  std::vector<std::pair<TraceId, VisitRecord>> visit_records_;
  /// Inter-site calls buffered within one simulated instant, per destination
  /// (ordered map for deterministic flush order).
  std::map<SiteId, std::vector<BackLocalCallMsg>> pending_calls_;
  bool flush_scheduled_ = false;
  /// Remote steps parked per suspected destination (ordered map for
  /// deterministic resume order). Volatile: a crash drops them with the
  /// frames they belong to.
  std::map<SiteId, std::vector<ParkedCall>> parked_calls_;
  std::uint32_t next_trace_seq_ = 1;
  BackTracerStats stats_;
};

}  // namespace dgc
