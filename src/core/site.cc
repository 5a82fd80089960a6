#include "core/site.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/logging.h"

namespace dgc {

Site::Site(SiteId id, Transport& transport, const CollectorConfig& config)
    : id_(id),
      transport_(transport),
      scheduler_(transport.scheduler()),
      config_(config),
      heap_(id),
      tables_(id, config_),
      collector_(heap_, tables_),
      back_tracer_(
          id, tables_, transport, scheduler_,
          [this]() -> const SiteBackInfo& { return *back_info_; },
          [this](ObjectId obj) { return IsRootObject(obj); }) {
  transport_.RegisterSite(id, [this](const Envelope& envelope) {
    HandleMessage(envelope);
  });
  transport_.SetRecoveryListener(id, [this](SiteId peer, bool restarted) {
    if (restarted) back_tracer_.OnPeerRestarted(peer);
    back_tracer_.OnPeerRecovered(peer);
  });
}

void Site::HandleMessage(const Envelope& envelope) {
  if (extension_handler_ && extension_handler_(envelope)) return;
  std::visit(
      [&](const auto& msg) {
        using T = std::decay_t<decltype(msg)>;
        if constexpr (std::is_same_v<T, InsertMsg>) {
          HandleInsert(envelope, msg);
        } else if constexpr (std::is_same_v<T, InsertAckMsg>) {
          HandleInsertAck(msg);
        } else if constexpr (std::is_same_v<T, UpdateMsg>) {
          HandleUpdate(envelope, msg);
        } else if constexpr (std::is_same_v<T, BackLocalCallMsg>) {
          back_tracer_.HandleLocalCall(envelope, msg);
        } else if constexpr (std::is_same_v<T, BackRemoteCallMsg>) {
          back_tracer_.HandleRemoteCall(envelope, msg);
        } else if constexpr (std::is_same_v<T, BackReplyMsg>) {
          back_tracer_.HandleReply(msg);
        } else if constexpr (std::is_same_v<T, BackReportMsg>) {
          back_tracer_.HandleReport(msg);
        } else if constexpr (std::is_same_v<T, BackCallBatchMsg>) {
          back_tracer_.HandleCallBatch(envelope, msg);
        } else if constexpr (std::is_same_v<T, MutatorReadMsg>) {
          HandleMutatorRead(envelope, msg);
        } else if constexpr (std::is_same_v<T, MutatorReadReplyMsg>) {
          HandleMutatorReadReply(envelope, msg);
        } else if constexpr (std::is_same_v<T, MutatorWriteMsg>) {
          HandleMutatorWrite(envelope, msg);
        } else if constexpr (std::is_same_v<T, MutatorWriteAckMsg>) {
          HandleMutatorWriteAck(msg);
        } else if constexpr (std::is_same_v<T, FetchMsg>) {
          HandleFetch(envelope, msg);
        } else if constexpr (std::is_same_v<T, FetchReplyMsg>) {
          HandleFetchReply(msg);
        } else if constexpr (std::is_same_v<T, CommitMsg>) {
          HandleCommit(envelope, msg);
        } else if constexpr (std::is_same_v<T, CommitAckMsg>) {
          HandleCommitAck(envelope, msg);
        } else if constexpr (std::is_same_v<T, PinReleaseMsg>) {
          HandlePinRelease(msg);
        } else {
          static_assert(kBaselineOnly<T>,
                        "a site message kind lacks a handler");
          DGC_CHECK_MSG(false, "unhandled message kind "
                                   << PayloadKindName(envelope.payload.index())
                                   << " at site " << id_);
        }
      },
      envelope.payload);
}

// ---------------------------------------------------------------------------
// Reference-listing protocol (Section 2).

void Site::HandleInsert(const Envelope& envelope, const InsertMsg& msg) {
  DGC_CHECK(msg.ref.site == id_);
  if (!heap_.Exists(msg.ref)) {
    // A recovery-time re-registration (no pin held) may name an object that
    // a completed back trace condemned and this site then swept while the
    // sender was down (condemned but not yet swept is the case below): the
    // sender's outref is stale and will be trimmed. Under the socket
    // transport this also refuses a stale name in another process's input.
    // A *pinned* insert for a dead object, however, means a mutator held a
    // reference to garbage — a safety bug.
    DGC_CHECK_MSG(!msg.pinned, "insert for reclaimed object " << msg.ref);
    return;
  }
  ++stats_.inserts_handled;
  if (const InrefEntry* flagged = tables_.FindInref(msg.ref);
      flagged != nullptr && flagged->garbage_flagged) {
    // A recovery-time re-registration may name an object that a completed
    // back trace condemned while the sender was down; the sender's stale
    // outref dies with its (garbage) holders at its next local trace. A
    // *pinned* insert for condemned garbage would mean a mutator holds a
    // reference to it — a safety bug.
    DGC_CHECK_MSG(!msg.pinned,
                  "mutator-held insert for condemned object " << msg.ref);
    return;
  }
  // The sender is the new source, at the conservative distance of one
  // (Section 3). If that transitions the inref from suspected to clean, the
  // clean rule must fire for any trace active there (§6.4 — cleaning is
  // cleaning, whether by barrier override or by a distance drop).
  const InrefEntry* existing = tables_.FindInref(msg.ref);
  const bool was_clean =
      existing == nullptr || existing->clean(config_.suspicion_threshold);
  InrefEntry& entry =
      tables_.AddInrefSource(msg.ref, envelope.from, msg.distance);
  if (!was_clean && entry.clean(config_.suspicion_threshold)) {
    back_tracer_.OnIorefCleaned(IorefKind::kInref, msg.ref);
  }
  // "(Also, the transfer barrier applies to inref z.)" — §6.1.2 case 4.
  ApplyTransferBarrier(msg.ref);
  if (msg.pinned) transport_.Send(id_, envelope.from, InsertAckMsg{msg.ref});
}

void Site::HandleInsertAck(const InsertAckMsg& msg) {
  const auto it = pending_insert_acks_.find(msg.ref);
  if (it == pending_insert_acks_.end()) {
    // Duplicate or stale ack (a resent insert's extra ack, or the pin was
    // zeroed by a crash-restart): the pin it would release is already gone.
    return;
  }
  OutrefEntry* entry = tables_.FindOutref(msg.ref);
  DGC_CHECK_MSG(entry != nullptr, "insert ack for missing outref " << msg.ref);
  DGC_CHECK(entry->pin_count > 0);
  --entry->pin_count;
  std::vector<std::function<void()>> continuations = std::move(it->second);
  pending_insert_acks_.erase(it);
  for (auto& continuation : continuations) continuation();
}

void Site::HandleUpdate(const Envelope& envelope, const UpdateMsg& msg) {
  tables_.ApplyUpdate(envelope.from, msg.entries, [this](ObjectId ref) {
    // A distance drop cleaned the inref: clean rule (§6.4).
    back_tracer_.OnIorefCleaned(IorefKind::kInref, ref);
  });
  // Note: no back-trace trigger rescan here. The trigger compares OUTREF
  // distances against back thresholds, and outref distances only change
  // when a local trace recomputes them — so the post-trace check in
  // ApplyTraceResult is already the earliest possible detection point.
}

// ---------------------------------------------------------------------------
// Barriers (Section 6.1).

void Site::ApplyTransferBarrier(ObjectId local_ref) {
  DGC_CHECK(local_ref.site == id_);
  InrefEntry* inref = tables_.FindInref(local_ref);
  if (inref == nullptr) return;  // no inref: purely local object
  DGC_CHECK_MSG(!inref->garbage_flagged,
                "mutator transferred a reference to condemned object "
                    << local_ref << " — safety violated");
  if (inref->clean(config_.suspicion_threshold)) return;
  ++stats_.transfer_barrier_hits;
  inref->clean_override = true;
  if (pending_trace_.has_value()) window_cleaned_inrefs_.insert(local_ref);
  back_tracer_.OnIorefCleaned(IorefKind::kInref, local_ref);
  // Clean the outrefs in i.outset, using the current (old) copy; the replay
  // into the new copy happens when the in-flight trace applies (§6.2).
  const auto outset = back_info_->inref_outsets.find(local_ref);
  if (outset != back_info_->inref_outsets.end()) {
    for (const ObjectId outref : outset->second) CleanOutref(outref);
  }
}

void Site::CleanOutref(ObjectId remote_ref) {
  if (pending_trace_.has_value()) window_cleaned_outrefs_.insert(remote_ref);
  OutrefEntry* entry = tables_.FindOutref(remote_ref);
  if (entry == nullptr) return;  // trimmed since the outset was computed
  const bool was_clean = entry->clean();
  entry->clean_override = true;
  if (!was_clean) {
    back_tracer_.OnIorefCleaned(IorefKind::kOutref, remote_ref);
  }
}

void Site::ReceiveReference(ObjectId ref, std::function<void()> done) {
  DGC_CHECK(ref.valid());
  DGC_CHECK(done != nullptr);
  if (ref.site == id_) {
    // Case 1: the object lives here; the transfer barrier applies.
    ApplyTransferBarrier(ref);
    done();
    return;
  }
  const auto pending = pending_insert_acks_.find(ref);
  if (pending != pending_insert_acks_.end()) {
    // The outref's insert is unacknowledged, perhaps lost: wait for its ack,
    // or this arrival could complete before the owner lists this site.
    pending->second.push_back(std::move(done));
    return;
  }
  OutrefEntry* existing = tables_.FindOutref(ref);
  if (existing != nullptr) {
    if (!existing->clean()) {
      // Case 3: suspected outref — clean it.
      CleanOutref(ref);
    }  // Case 2: clean outref — nothing to do.
    done();
    return;
  }
  // Case 4: create a clean outref and register with the owner. The new
  // outref stays pinned clean until the owner acknowledges the insert, and
  // the operation completes only then (ML94's synchronous inserts): until
  // the ack, the owner's source list may not include this site.
  auto [entry, created] = tables_.EnsureOutref(ref);
  DGC_CHECK(created);
  entry->clean_override = true;
  entry->pin_count += 1;
  entry->distance = 1;  // held by a mutator: conservatively root-adjacent
  pending_insert_acks_[ref].push_back(std::move(done));
  transport_.Send(id_, ref.site, InsertMsg{ref, /*pinned=*/true});
}

void Site::ResendPendingInserts() {
  // Every entry is a pinned outref awaiting the owner's ack; inserts are
  // idempotent, so resending recovers from any lost message.
  for (const auto& [ref, continuations] : pending_insert_acks_) {
    (void)continuations;
    transport_.Send(id_, ref.site, InsertMsg{ref, /*pinned=*/true});
  }
}

// ---------------------------------------------------------------------------
// Application roots (Section 6.3).

void Site::AddAppRoot(ObjectId obj) {
  DGC_CHECK(obj.site == id_);
  DGC_CHECK_MSG(heap_.Exists(obj), "app root names missing object " << obj);
  app_roots_[obj] += 1;
}

void Site::RemoveAppRoot(ObjectId obj) {
  const auto it = app_roots_.find(obj);
  DGC_CHECK_MSG(it != app_roots_.end(), "not an app root: " << obj);
  if (--it->second == 0) app_roots_.erase(it);
}

void Site::PinOutref(ObjectId remote_ref) {
  OutrefEntry* entry = tables_.FindOutref(remote_ref);
  DGC_CHECK_MSG(entry != nullptr, "pin of missing outref " << remote_ref);
  entry->pin_count += 1;
  // Pinning makes it clean; fire the clean rule if that is a transition.
  if (entry->pin_count == 1 && !entry->clean_override &&
      !entry->traced_clean) {
    back_tracer_.OnIorefCleaned(IorefKind::kOutref, remote_ref);
  }
}

void Site::UnpinOutref(ObjectId remote_ref) {
  OutrefEntry* entry = tables_.FindOutref(remote_ref);
  DGC_CHECK_MSG(entry != nullptr, "unpin of missing outref " << remote_ref);
  DGC_CHECK(entry->pin_count > 0);
  entry->pin_count -= 1;
}

std::vector<ObjectId> Site::AppRootObjects() const {
  std::vector<ObjectId> roots;
  roots.reserve(app_roots_.size());
  for (const auto& [obj, count] : app_roots_) {
    (void)count;
    roots.push_back(obj);
  }
  return roots;
}

bool Site::IsRootObject(ObjectId obj) const {
  if (app_roots_.contains(obj)) return true;
  const auto& roots = heap_.persistent_roots();
  return std::find(roots.begin(), roots.end(), obj) != roots.end();
}

std::vector<ObjectId> Site::PinnedRemoteRefs() const {
  std::vector<ObjectId> pinned;
  for (const auto& [ref, entry] : tables_.outrefs()) {
    if (entry.pin_count > 0) pinned.push_back(ref);
  }
  return pinned;
}

// ---------------------------------------------------------------------------
// Mutator RPC server side.

void Site::HandleMutatorRead(const Envelope& envelope,
                             const MutatorReadMsg& msg) {
  DGC_CHECK(msg.target.site == id_);
  DGC_CHECK_MSG(heap_.Exists(msg.target),
                "mutator read of reclaimed object " << msg.target);
  // The reference `target` just arrived here: transfer barrier (§6.1.2 #1).
  ApplyTransferBarrier(msg.target);
  const ObjectId value = heap_.GetSlot(msg.target, msg.slot);
  // Sender retention (§2): "the sender Q retains its outref for c until R is
  // known to have received the insert message". A served reference is
  // retained here until the requester confirms it is safely recorded —
  // without this, a concurrent overwrite of the slot could let the target's
  // owner reclaim the object while our reply (and the requester's insert)
  // are still in flight. Remote references pin our outref; our own objects
  // are self-retained as temporary roots.
  if (value.valid()) RetainServedReference(value);
  transport_.Send(id_, envelope.from, MutatorReadReplyMsg{msg.session, value});
}

void Site::RetainServedReference(ObjectId ref) {
  if (ref.site == id_) {
    AddAppRoot(ref);
  } else {
    PinOutref(ref);
  }
}

void Site::HandlePinRelease(const PinReleaseMsg& msg) {
  if (msg.ref.site == id_) {
    // Releasing a self-retention on one of our own served objects. Tolerate
    // over-releases only after a crash-restart wiped the root set.
    if (app_roots_.contains(msg.ref)) RemoveAppRoot(msg.ref);
    return;
  }
  OutrefEntry* entry = tables_.FindOutref(msg.ref);
  // The pin guarantees the entry exists until released; tolerate a missing
  // entry only for pins zeroed by a crash-restart.
  if (entry == nullptr || entry->pin_count == 0) return;
  --entry->pin_count;
}

void Site::HandleMutatorReadReply(const Envelope& envelope,
                                  const MutatorReadReplyMsg& msg) {
  const auto it = session_continuations_.find(msg.session);
  if (it == session_continuations_.end()) {
    // Duplicate reply from a retried RPC: the first one won. Release the
    // server's (duplicate) retention so it does not leak.
    if (msg.value.valid()) {
      transport_.Send(id_, envelope.from, PinReleaseMsg{msg.value});
    }
    return;
  }
  auto continuation = std::move(it->second);
  session_continuations_.erase(it);
  if (!msg.value.valid()) {
    continuation(kInvalidObject);
    return;
  }
  // The reference arrived at this (home) site: §6.1.2 cases, then resume —
  // and release the server's sender-retention pin once safely recorded.
  const ObjectId value = msg.value;
  const SiteId server = envelope.from;
  ReceiveReference(
      value,
      [this, continuation = std::move(continuation), value, server] {
        // Release the server's retention (outref pin or self-root).
        transport_.Send(id_, server, PinReleaseMsg{value});
        continuation(value);
      });
}

void Site::HandleMutatorWrite(const Envelope& envelope,
                              const MutatorWriteMsg& msg) {
  DGC_CHECK(msg.target.site == id_);
  DGC_CHECK_MSG(heap_.Exists(msg.target),
                "mutator write to reclaimed object " << msg.target);
  ApplyTransferBarrier(msg.target);
  const SiteId requester = envelope.from;
  const auto finish = [this, msg, requester] {
    heap_.SetSlot(msg.target, msg.slot, msg.value);
    transport_.Send(id_, requester, MutatorWriteAckMsg{msg.session});
  };
  if (!msg.value.valid()) {
    finish();
    return;
  }
  // The value reference arrived here too; record it (possibly waiting for an
  // insert ack — synchronous inserts) before the write becomes visible.
  ReceiveReference(msg.value, finish);
}

void Site::HandleMutatorWriteAck(const MutatorWriteAckMsg& msg) {
  const auto it = session_continuations_.find(msg.session);
  if (it == session_continuations_.end()) return;  // duplicate (retried RPC)
  auto continuation = std::move(it->second);
  session_continuations_.erase(it);
  continuation(kInvalidObject);
}

void Site::RegisterSessionContinuation(
    std::uint64_t session, std::function<void(ObjectId)> continuation) {
  DGC_CHECK_MSG(!session_continuations_.contains(session),
                "session " << session << " already has an operation pending");
  session_continuations_.emplace(session, std::move(continuation));
}

void Site::RegisterFetchContinuation(
    std::uint64_t session,
    std::function<void(const std::vector<ObjectId>&)> continuation) {
  DGC_CHECK_MSG(!fetch_continuations_.contains(session),
                "session " << session << " already has a fetch pending");
  fetch_continuations_.emplace(session, std::move(continuation));
}

void Site::RegisterCommitContinuation(std::uint64_t session,
                                      std::set<SiteId> awaiting_owners,
                                      std::function<void()> continuation) {
  DGC_CHECK(!awaiting_owners.empty());
  DGC_CHECK_MSG(!commit_continuations_.contains(session),
                "session " << session << " already has a commit pending");
  commit_continuations_.emplace(
      session,
      PendingCommit{std::move(awaiting_owners), std::move(continuation)});
}

// ---------------------------------------------------------------------------
// Client-caching transactions (§6.1.1, last paragraph).

void Site::HandleFetch(const Envelope& envelope, const FetchMsg& msg) {
  DGC_CHECK(msg.target.site == id_);
  DGC_CHECK_MSG(heap_.Exists(msg.target),
                "fetch of reclaimed object " << msg.target);
  // The reference to the fetched object arrived here: transfer barrier.
  ApplyTransferBarrier(msg.target);
  // Sender retention (§2) for every reference handed out in the copy:
  // retained until the client's EndTransaction releases them. (Real
  // client-caching systems track this in a cache directory; a crashed
  // client's retentions are zeroed by this site's CrashRestart.)
  const std::span<const ObjectId> slots = heap_.Slots(msg.target);
  for (const ObjectId ref : slots) {
    if (ref.valid()) RetainServedReference(ref);
  }
  transport_.Send(id_, envelope.from,
                  FetchReplyMsg{msg.session, msg.target,
                                {slots.begin(), slots.end()}});
}

void Site::HandleFetchReply(const FetchReplyMsg& msg) {
  const auto it = fetch_continuations_.find(msg.session);
  if (it == fetch_continuations_.end()) return;  // duplicate (retried RPC)
  auto continuation = std::move(it->second);
  fetch_continuations_.erase(it);
  continuation(msg.slots);
}

void Site::HandleCommit(const Envelope& envelope, const CommitMsg& msg) {
  // The §6.1.1 commit-time barrier check: every reference named in the
  // read-write log slice passes through the barriers before the writes
  // become visible, and the ack is withheld until any insert barrier the
  // new references require has been acknowledged (synchronous inserts).
  const SiteId requester = envelope.from;
  const std::uint64_t session = msg.session;
  for (const CommitWrite& write : msg.writes) {
    DGC_CHECK(write.target.site == id_);
    DGC_CHECK_MSG(heap_.Exists(write.target),
                  "commit write to reclaimed object " << write.target);
    ApplyTransferBarrier(write.target);
  }
  auto pending = std::make_shared<std::size_t>(0);
  auto writes = std::make_shared<std::vector<CommitWrite>>(msg.writes);
  const auto finish = [this, requester, session, writes] {
    for (const CommitWrite& write : *writes) {
      heap_.SetSlot(write.target, write.slot, write.value);
    }
    transport_.Send(id_, requester, CommitAckMsg{session});
  };
  for (const CommitWrite& write : msg.writes) {
    if (write.value.valid()) ++*pending;
  }
  if (*pending == 0) {
    finish();
    return;
  }
  for (const CommitWrite& write : msg.writes) {
    if (!write.value.valid()) continue;
    ReceiveReference(write.value,
                     [pending, finish] { if (--*pending == 0) finish(); });
  }
}

void Site::HandleCommitAck(const Envelope& envelope, const CommitAckMsg& msg) {
  const auto it = commit_continuations_.find(msg.session);
  if (it == commit_continuations_.end()) return;  // duplicate (retried RPC)
  it->second.awaiting.erase(envelope.from);
  if (it->second.awaiting.empty()) {
    auto continuation = std::move(it->second.continuation);
    commit_continuations_.erase(it);
    continuation();
  }
}

// ---------------------------------------------------------------------------
// Local tracing (Sections 2, 3, 5; non-atomic per Section 6.2).

void Site::StartLocalTrace() {
  CommitLocalTrace(ComputeLocalTrace());
}

TraceResult Site::ComputeLocalTrace() {
  DGC_CHECK_MSG(!pending_trace_.has_value(),
                "local trace already in flight at site " << id_);
  ++stats_.local_traces;
  TraceResult result = collector_.Run(AppRootObjects());
  stats_.trace_wall_ns += result.stats.trace_wall_ns;
  stats_.mark_wall_ns += result.stats.mark_wall_ns;
  stats_.objects_marked += result.stats.objects_marked_clean +
                           result.stats.objects_marked_suspect;
  stats_.quiescent_skips += result.stats.quiescent_skips;
  stats_.outsets_reused += result.stats.outsets_reused;
  return result;
}

void Site::CommitLocalTrace(TraceResult result) {
  if (config_.local_trace_duration <= 0) {
    ApplyTraceResult(std::move(result));
    return;
  }
  pending_trace_ = std::move(result);
  scheduler_.After(config_.local_trace_duration,
                   [this, generation = trace_generation_] {
                     if (generation != trace_generation_) return;  // crashed
                     DGC_CHECK(pending_trace_.has_value());
                     TraceResult result = std::move(*pending_trace_);
                     pending_trace_.reset();
                     ApplyTraceResult(std::move(result));
                   });
}

void Site::CrashRestart() {
  // The restarted process is a new incarnation: pre-crash wire traffic is
  // rejected at arrival and (with reliable delivery) every transport
  // channel touching this site is dead-lettered — its connection state died
  // with the process too.
  transport_.NoteSiteRestarted(id_);
  // Dead-lettering dropped the old incarnation's recovery listener with the
  // rest of its connection state; the new incarnation subscribes afresh.
  transport_.SetRecoveryListener(id_, [this](SiteId peer, bool restarted) {
    if (restarted) back_tracer_.OnPeerRestarted(peer);
    back_tracer_.OnPeerRecovered(peer);
  });
  // Volatile state dies with the process.
  ++trace_generation_;
  pending_trace_.reset();
  // The trace-reuse cache is volatile acceleration state: the restarted
  // collector must re-derive everything from the durable heap and tables
  // with a full trace.
  collector_.InvalidateCache();
  window_cleaned_inrefs_.clear();
  window_cleaned_outrefs_.clear();
  back_tracer_.DropVolatileState();
  session_continuations_.clear();
  fetch_continuations_.clear();
  commit_continuations_.clear();
  pending_insert_acks_.clear();
  app_roots_.clear();  // local sessions died with the site
  // Pins represent running client / in-flight insert state: all volatile.
  ReannounceOutrefs();
}

void Site::ReannounceOutrefs() {
  // Re-register every persistent outref with its owner (idempotent) so
  // source lists lost to crashed-out insert messages heal. Call this after
  // the network link is restored or the re-registrations are lost too.
  for (auto& [ref, entry] : tables_.outrefs()) {
    entry.pin_count = 0;
    const Distance carried =
        entry.distance == kDistanceInfinity ? 1 : entry.distance;
    transport_.Send(id_, ref.site, InsertMsg{ref, /*pinned=*/false, carried});
  }
}

void Site::ApplyTraceResult(TraceResult result) {
  // Steps 1 and 2 are merge walks (snapshots and tables are all sorted);
  // entries created while the trace was in flight are stepped over.
  // 1. Inref cleanliness: overrides drop, except those the transfer barrier
  //    set while this trace was in flight (remembered cleanings, §6.2).
  auto inref = tables_.inrefs().begin();
  for (const ObjectId obj : result.snapshot_inrefs) {
    while (inref != tables_.inrefs().end() && inref->first < obj) ++inref;
    if (inref == tables_.inrefs().end()) break;
    if (inref->first != obj) continue;  // lost its last source meanwhile
    if (!window_cleaned_inrefs_.contains(obj)) {
      inref->second.clean_override = false;
    }
  }

  // 2. Outrefs: apply distances and cleanliness; trim the unreached.
  // Periodically resend everything so state lost to dropped messages or
  // crashed sites heals once connectivity returns.
  const bool full_refresh =
      config_.update_refresh_period > 0 &&
      result.epoch % config_.update_refresh_period == 0;
  FlatMap<SiteId, UpdateMsg> updates;
  std::vector<ObjectId> trimmed;
  auto outref = tables_.outrefs().begin();
  for (const OutrefRecord& record : result.outrefs) {
    const ObjectId ref = record.ref;
    while (outref != tables_.outrefs().end() && outref->first < ref) ++outref;
    DGC_CHECK_MSG(outref != tables_.outrefs().end() && outref->first == ref,
                  "snapshot outref vanished: " << ref);
    OutrefEntry* entry = &outref->second;
    const bool window_clean = window_cleaned_outrefs_.contains(ref);
    if (!record.reached) {
      if (entry->pin_count > 0 || window_clean) {
        // Kept alive by the insert barrier or a mid-trace transfer barrier:
        // stays clean; state untouched until the next trace sees the paths.
        continue;
      }
      updates[ref.site].entries.push_back(UpdateEntry{ref, true, 0});
      trimmed.push_back(ref);
      continue;
    }
    entry->distance = record.distance;
    entry->traced_clean = record.clean;
    if (!window_clean) entry->clean_override = false;
    if (entry->distance != entry->last_reported || full_refresh) {
      updates[ref.site].entries.push_back(
          UpdateEntry{ref, false, entry->distance});
      entry->last_reported = entry->distance;
    }
  }
  tables_.RemoveOutrefs(trimmed);
  stats_.outrefs_trimmed += trimmed.size();

  // 3. Swap in the new back information and replay remembered barrier
  //    cleanings against it (§6.2).
  back_info_ = std::move(result.back_info);
  for (const ObjectId inref_obj : window_cleaned_inrefs_) {
    if (InrefEntry* entry = tables_.FindInref(inref_obj)) {
      entry->clean_override = true;
      const auto outset = back_info_->inref_outsets.find(inref_obj);
      if (outset != back_info_->inref_outsets.end()) {
        for (const ObjectId outref : outset->second) {
          if (OutrefEntry* out = tables_.FindOutref(outref)) {
            if (!out->clean()) {
              back_tracer_.OnIorefCleaned(IorefKind::kOutref, outref);
            }
            out->clean_override = true;
          }
        }
      }
    }
  }
  window_cleaned_inrefs_.clear();
  window_cleaned_outrefs_.clear();

  // 4. Sweep. Everything here was unreachable when the trace began; garbage
  //    cannot be resurrected, so reclamation is safe at apply time.
  for (const ObjectId obj : result.objects_to_free) heap_.Free(obj);

  // 5. Update messages to target sites (Section 2).
  for (auto& [target, msg] : updates) {
    stats_.update_entries_sent += msg.entries.size();
    ++stats_.updates_sent;
    transport_.Send(id_, target, std::move(msg));
  }

  // 6. Post-trace housekeeping: retry unacknowledged inserts,
  //    expire orphaned visit records, and start back traces from suspects
  //    past their back threshold (Section 4.3).
  ResendPendingInserts();
  back_tracer_.ExpireStaleRecords();
  back_tracer_.MaybeStartTraces();
}

// ---------------------------------------------------------------------------
// Direct graph construction.

void Site::WireSource(ObjectId source, std::size_t slot, ObjectId target) {
  DGC_CHECK(source.site == id_);
  heap_.SetSlot(source, slot, target);
  if (!target.valid() || target.site == id_) return;
  auto [entry, created] = tables_.EnsureOutref(target);
  if (created) entry->distance = 1;
}

void Site::WireTarget(ObjectId target, SiteId source_site) {
  DGC_CHECK(source_site != id_);
  // A new source starts at distance 1; an existing one keeps its distance.
  tables_.EnsureInref(target).sources.try_emplace(source_site, 1);
}

}  // namespace dgc
