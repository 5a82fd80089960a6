// A site: one node of the distributed object store.
//
// Composes the substrates — heap, inref/outref tables, local collector, back
// tracer — and implements the distributed protocols that glue them together:
//
//   * the insert/update protocol of Section 2 (reference listing);
//   * the transfer barrier and insert barrier of Section 6.1;
//   * non-atomic local traces with double-buffered back information
//     (Section 6.2): while a trace is in flight, back traces are served from
//     the old copy and barrier cleanings are replayed into the new one;
//   * the server side of the mutator RPCs (reads/writes whose reference
//     arguments drive the barriers);
//   * application roots (Section 6.3): local objects held in mutator
//     variables are trace roots; remote references held in variables pin
//     their outrefs clean.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "backinfo/site_back_info.h"
#include "backtrace/back_tracer.h"
#include "common/config.h"
#include "common/counters.h"
#include "common/flat_map.h"
#include "common/ids.h"
#include "localgc/local_collector.h"
#include "net/transport.h"
#include "refs/tables.h"
#include "sim/scheduler.h"
#include "store/heap.h"

namespace dgc {

/// Per-site counters, accumulated by the owning site's protocol handlers.
struct SiteStats {
  std::uint64_t local_traces = 0;
  std::uint64_t updates_sent = 0;
  std::uint64_t update_entries_sent = 0;
  std::uint64_t inserts_handled = 0;
  std::uint64_t transfer_barrier_hits = 0;  // barrier found a suspected inref
  std::uint64_t outrefs_trimmed = 0;
  std::uint64_t trace_wall_ns = 0;     // cumulative real trace-compute time
  std::uint64_t mark_wall_ns = 0;      // cumulative clean-mark phase time
  std::uint64_t objects_marked = 0;    // cumulative clean + suspect marks
  // Trace-reuse accounting.
  std::uint64_t quiescent_skips = 0;   // traces served verbatim from cache
  std::uint64_t outsets_reused = 0;    // outsets refolds and skips re-served
  // Flat ref-table accounting, mirrored from RefTables when stats() is read:
  // inserts absorbed by spare vector capacity vs. reallocations, and the
  // slots allocated. Steady-state churn should show reuses climbing while
  // grows stay flat.
  std::uint64_t table_slot_reuses = 0;
  std::uint64_t table_slot_grows = 0;
  std::size_t table_slot_capacity = 0;
};

auto Counters(Is<SiteStats> auto& s) {
  return std::tuple{
      Counter{"local_traces", s.local_traces},
      Counter{"updates_sent", s.updates_sent},
      Counter{"update_entries_sent", s.update_entries_sent},
      Counter{"inserts_handled", s.inserts_handled},
      Counter{"transfer_barrier_hits", s.transfer_barrier_hits},
      Counter{"outrefs_trimmed", s.outrefs_trimmed},
      Counter{"trace_wall_ns", s.trace_wall_ns},
      Counter{"mark_wall_ns", s.mark_wall_ns},
      Counter{"objects_marked", s.objects_marked},
      Counter{"quiescent_skips", s.quiescent_skips},
      Counter{"outsets_reused", s.outsets_reused},
      Counter{"table_slot_reuses", s.table_slot_reuses},
      Counter{"table_slot_grows", s.table_slot_grows},
      Counter{"table_slot_capacity", s.table_slot_capacity}};
}
static_assert(ListsEveryMember<SiteStats>());

class Site {
 public:
  Site(SiteId id, Transport& transport, const CollectorConfig& config);

  Site(const Site&) = delete;
  Site& operator=(const Site&) = delete;

  [[nodiscard]] SiteId id() const { return id_; }
  [[nodiscard]] Heap& heap() { return heap_; }
  [[nodiscard]] const Heap& heap() const { return heap_; }
  [[nodiscard]] RefTables& tables() { return tables_; }
  [[nodiscard]] const RefTables& tables() const { return tables_; }
  [[nodiscard]] BackTracer& back_tracer() { return back_tracer_; }
  [[nodiscard]] const BackTracer& back_tracer() const { return back_tracer_; }
  [[nodiscard]] const SiteBackInfo& back_info() const { return *back_info_; }
  [[nodiscard]] LocalCollector& collector() { return collector_; }
  [[nodiscard]] const LocalCollector& collector() const { return collector_; }
  /// Refreshes the table-mirror fields (the tables mutate without passing
  /// through Site, so they are snapshotted at read time) and returns the
  /// stats block.
  [[nodiscard]] const SiteStats& stats() const {
    stats_.table_slot_reuses = tables_.slot_reuses();
    stats_.table_slot_grows = tables_.slot_grows();
    stats_.table_slot_capacity = tables_.slot_capacity();
    return stats_;
  }
  [[nodiscard]] const CollectorConfig& config() const { return config_; }

  // --- Network entry point -------------------------------------------

  void HandleMessage(const Envelope& envelope);

  /// Installs a handler consulted before built-in dispatch; returning true
  /// consumes the message. Used by the baseline collectors.
  void SetExtensionHandler(std::function<bool(const Envelope&)> handler) {
    extension_handler_ = std::move(handler);
  }

  // --- Local tracing ---------------------------------------------------

  /// Starts a local trace. With local_trace_duration == 0 it computes and
  /// applies atomically; otherwise the result applies after the configured
  /// duration (Section 6.2) and back traces meanwhile see the old copy.
  /// Equivalent to CommitLocalTrace(ComputeLocalTrace()).
  void StartLocalTrace();

  /// Compute half of a local trace: runs the collector against the current
  /// heap and tables and returns the result without applying it. Touches
  /// only this site's state (heap epoch stamps, collector epoch) — no
  /// network sends, no scheduler writes — so a caller may time it apart
  /// from the apply.
  [[nodiscard]] TraceResult ComputeLocalTrace();

  /// Apply half of a local trace: applies immediately (atomic trace) or
  /// parks the result for the configured duration (Section 6.2).
  void CommitLocalTrace(TraceResult result);

  [[nodiscard]] bool trace_in_flight() const {
    return pending_trace_.has_value();
  }

  /// Resends every insert still awaiting its owner's acknowledgement. Runs
  /// automatically with each local trace; clients also call it when their
  /// blocking operation appears stalled (lost message). All inserts are
  /// idempotent.
  void ResendPendingInserts();

  /// Models a crash-restart: the persistent state (heap, inref/outref
  /// tables, back information — all durable in a persistent object store
  /// like Thor) survives; volatile state dies: back-trace frames and visit
  /// records, an in-flight local trace, pending insert continuations and
  /// RPC continuations. Call Network::SetSiteDown around the outage window;
  /// call this at the moment of the crash.
  void CrashRestart();

  // --- Snapshot restore (socket-mode site persistence) ------------------

  /// Installs restored back information. The snapshot stores only the
  /// inref-outset view; the inverse index is recomputed rather than
  /// trusted (SiteBackInfo keeps them exact inverses by construction).
  void RestoreBackInfo(OutsetMap inref_outsets) {
    auto info = std::make_shared<SiteBackInfo>();
    info->inref_outsets = std::move(inref_outsets);
    info->RecomputeInsets();
    back_info_ = std::move(info);
  }

  /// Re-registers every outref with its owner — the same idempotent
  /// recovery-time InsertMsg resends CrashRestart performs — and zeroes
  /// pins (volatile client state). The snapshot-restore path calls this
  /// once heap, tables, and back info are loaded, so owner source lists
  /// and distance info lost with the crashed incarnation heal.
  void ReannounceOutrefs();

  // --- Barriers and reference arrival (Section 6.1) --------------------

  /// Transfer barrier: a reference to local object `local_ref` was
  /// transferred or traversed to this site. If the inref is suspected,
  /// cleans it and the outrefs in its outset.
  void ApplyTransferBarrier(ObjectId local_ref);

  /// A reference arrived at this site (RPC argument/result). Runs the
  /// appropriate case of Section 6.1.2 and invokes `done` once the reference
  /// is safely recorded: immediately, or once the owner acknowledges the
  /// insert (synchronous inserts, Section 2) for case 4 (no outref yet) and
  /// for any arrival while the outref's insert is unacknowledged.
  void ReceiveReference(ObjectId ref, std::function<void()> done);

  // --- Application roots (Section 6.3) ---------------------------------

  /// Registers a mutator variable holding local object `obj` as a root.
  void AddAppRoot(ObjectId obj);
  void RemoveAppRoot(ObjectId obj);

  /// Pins/unpins the outref for a remote reference held in a variable.
  /// The outref must already exist (the reference arrived via
  /// ReceiveReference).
  void PinOutref(ObjectId remote_ref);
  void UnpinOutref(ObjectId remote_ref);

  [[nodiscard]] std::vector<ObjectId> AppRootObjects() const;
  [[nodiscard]] bool IsRootObject(ObjectId obj) const;

  /// Remote references pinned by application variables or barriers —
  /// additional oracle roots.
  [[nodiscard]] std::vector<ObjectId> PinnedRemoteRefs() const;

  // --- Mutator RPC client plumbing --------------------------------------

  /// Registers the continuation for the session's next RPC completion on
  /// this (home) site. One outstanding operation per session.
  void RegisterSessionContinuation(std::uint64_t session,
                                   std::function<void(ObjectId)> continuation);

  /// Registers the continuation for a pending fetch (client caching); runs
  /// with the fetched copy's slots.
  void RegisterFetchContinuation(
      std::uint64_t session,
      std::function<void(const std::vector<ObjectId>&)> continuation);

  /// Registers the completion for a commit fanned out to the given owner
  /// sites; runs once every owner has acknowledged (duplicate acks from
  /// retried slices are ignored).
  void RegisterCommitContinuation(std::uint64_t session,
                                  std::set<SiteId> awaiting_owners,
                                  std::function<void()> continuation);

  // --- Direct graph construction (world building, not a protocol path) --

  /// The two halves of wiring `source.slots[slot] = target`, which keep the
  /// outref and inref tables consistent when the edge crosses sites.
  /// Bypasses barriers: use only to build initial worlds or in tests that
  /// script barrier timing themselves. System::Wire and the socket site
  /// host both call these, so the two transports build identical worlds.

  /// Source half: writes the slot and, for a remote target, ensures this
  /// site's outref (a new one starts at distance 1).
  void WireSource(ObjectId source, std::size_t slot, ObjectId target);

  /// Target half: registers `source_site` as a source of inref `target` (a
  /// new source starts at distance 1; an existing one keeps its distance).
  void WireTarget(ObjectId target, SiteId source_site);

 private:
  void HandleInsert(const Envelope& envelope, const InsertMsg& msg);
  void HandleInsertAck(const InsertAckMsg& msg);
  void HandleUpdate(const Envelope& envelope, const UpdateMsg& msg);
  void HandleMutatorRead(const Envelope& envelope, const MutatorReadMsg& msg);
  void HandleMutatorReadReply(const Envelope& envelope,
                              const MutatorReadReplyMsg& msg);
  void HandleMutatorWrite(const Envelope& envelope, const MutatorWriteMsg& msg);
  void HandleMutatorWriteAck(const MutatorWriteAckMsg& msg);
  void HandleFetch(const Envelope& envelope, const FetchMsg& msg);
  void HandleFetchReply(const FetchReplyMsg& msg);
  void HandleCommit(const Envelope& envelope, const CommitMsg& msg);
  void HandleCommitAck(const Envelope& envelope, const CommitAckMsg& msg);
  void HandlePinRelease(const PinReleaseMsg& msg);

  /// §2 sender retention for a reference this site is about to hand out in
  /// a reply: pins the outref (remote ref) or self-roots the object (own
  /// ref) until the requester's PinReleaseMsg.
  void RetainServedReference(ObjectId ref);

  void ApplyTraceResult(TraceResult result);

  /// Marks an outref clean (clean rule fires if it was suspected) and
  /// records the cleaning for replay into an in-flight trace's new copy.
  void CleanOutref(ObjectId remote_ref);

  SiteId id_;
  Transport& transport_;
  /// The transport's scheduler, which this site's timers live on.
  Scheduler& scheduler_;
  CollectorConfig config_;

  Heap heap_;
  RefTables tables_;
  LocalCollector collector_;
  /// The last applied trace's record, shared with the collector's reuse
  /// cache; never null. An in-flight trace holds the next one (§6.2).
  std::shared_ptr<const SiteBackInfo> back_info_ =
      std::make_shared<SiteBackInfo>();
  BackTracer back_tracer_;

  /// Non-atomic local trace state (Section 6.2).
  std::optional<TraceResult> pending_trace_;
  std::set<ObjectId> window_cleaned_inrefs_;
  std::set<ObjectId> window_cleaned_outrefs_;
  /// Bumped by CrashRestart so a stale scheduled trace-apply is discarded.
  std::uint64_t trace_generation_ = 0;

  /// Application roots: local object -> hold count. Flat sorted map — read
  /// every trace (root enumeration) and mutated only at session boundaries.
  FlatMap<ObjectId, int> app_roots_;

  /// Insert barrier: the one table of unacknowledged inserts. Per
  /// reference, the continuations awaiting the owner's ack; each entry's
  /// outref holds one pin until then. Flat sorted map: iteration order
  /// (ResendPendingInserts) matches the std::map original, keeping resend
  /// message order bit-identical.
  FlatMap<ObjectId, std::vector<std::function<void()>>> pending_insert_acks_;

  /// Mutator RPC continuations keyed by session id.
  std::unordered_map<std::uint64_t, std::function<void(ObjectId)>>
      session_continuations_;
  std::unordered_map<std::uint64_t,
                     std::function<void(const std::vector<ObjectId>&)>>
      fetch_continuations_;
  struct PendingCommit {
    std::set<SiteId> awaiting;
    std::function<void()> continuation;
  };
  std::unordered_map<std::uint64_t, PendingCommit> commit_continuations_;

  std::function<bool(const Envelope&)> extension_handler_;
  /// Mutable only so the const stats() accessor can refresh the
  /// table-mirror fields; every other write happens on non-const paths.
  mutable SiteStats stats_;
};

}  // namespace dgc
