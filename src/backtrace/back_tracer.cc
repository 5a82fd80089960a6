#include "backtrace/back_tracer.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/distance.h"
#include "common/logging.h"

namespace dgc {

BackTracer::BackTracer(SiteId site, RefTables& tables, Transport& transport,
                       Scheduler& scheduler,
                       std::function<const SiteBackInfo&()> back_info,
                       std::function<bool(ObjectId)> is_root_object)
    : site_(site),
      tables_(tables),
      transport_(transport),
      scheduler_(scheduler),
      back_info_(std::move(back_info)),
      is_root_object_(std::move(is_root_object)) {
  DGC_CHECK(back_info_ != nullptr);
  DGC_CHECK(is_root_object_ != nullptr);
}

std::size_t BackTracer::MaybeStartTraces() {
  if (!tables_.config().enable_back_tracing) return 0;
  // Collect candidates first: starting a trace touches no table state
  // synchronously (the first step arrives as a self-message), but iterate
  // defensively anyway.
  std::vector<ObjectId> candidates;
  for (const auto& [ref, entry] : tables_.outrefs()) {
    if (entry.clean()) continue;
    if (entry.distance == kDistanceInfinity) continue;
    if (entry.distance <= entry.back_threshold) continue;
    // Already being examined (by any trace, ours or a peer's): let that
    // trace finish rather than piling on (Section 4.7).
    if (!entry.visited.empty()) continue;
    candidates.push_back(ref);
  }
  // Also skip outrefs with a root frame already open (trace started, first
  // step not yet delivered).
  frames_.ForEach([&candidates](Frame& frame) {
    if (frame.is_root) {
      candidates.erase(
          std::remove(candidates.begin(), candidates.end(), frame.start_outref),
          candidates.end());
    }
  });
  for (const ObjectId ref : candidates) StartTrace(ref);
  return candidates.size();
}

TraceId BackTracer::StartTrace(ObjectId outref_ref) {
  const TraceId trace{site_, next_trace_seq_++};
  ++stats_.traces_started;
  Frame& root = CreateFrame(trace, kNoFrame, IorefKind::kOutref, outref_ref);
  root.is_root = true;
  root.start_outref = outref_ref;
  root.started_at = scheduler_.now();
  root.pending = 1;
  DGC_LOG_DEBUG("site " << site_ << ": start " << trace << " from outref "
                        << outref_ref);
  transport_.Send(site_, site_,
                BackLocalCallMsg{trace, outref_ref, FrameId{site_, root.id}});
  ArmTimeout(root.id, trace);
  return trace;
}

void BackTracer::HandleLocalCall(const Envelope& envelope,
                                 const BackLocalCallMsg& msg) {
  ++stats_.calls_handled;
  OutrefEntry* entry = tables_.FindOutref(msg.ref);
  if (entry == nullptr) {
    // The outref was deleted — the reference no longer exists, so this path
    // backwards is dead (Section 4.4).
    Reply(msg.trace, msg.caller, BackResult::kGarbage, {site_});
    return;
  }
  if (entry->clean()) {
    Reply(msg.trace, msg.caller, BackResult::kLive, {site_});
    return;
  }
  if (entry->IsVisitedBy(msg.trace)) {
    Reply(msg.trace, msg.caller, BackResult::kGarbage, {site_});
    return;
  }
  if (TryCoalesce(entry->visited, msg.trace, msg.caller, IorefKind::kOutref,
                  msg.ref)) {
    return;
  }
  entry->MarkVisited(msg.trace);
  entry->back_threshold =
      AddDistance(entry->back_threshold, tables_.config().back_threshold_increment);
  VisitRecord& record = TouchRecord(msg.trace);
  record.outrefs.push_back(msg.ref);
  record.last_touched = scheduler_.now();

  const SiteBackInfo& info = back_info_();
  const auto inset_it = info.outref_insets.find(msg.ref);
  if (inset_it == info.outref_insets.end() || inset_it->second.empty()) {
    // No recorded local path from any inref: at the last trace this outref
    // was reachable from no suspected inref (and from no clean one, or it
    // would be clean). Backwards, the path ends here.
    Reply(msg.trace, msg.caller, BackResult::kGarbage, {site_});
    return;
  }
  Frame& frame = CreateFrame(msg.trace, msg.caller, IorefKind::kOutref, msg.ref);
  frame.pending = static_cast<int>(inset_it->second.size());
  for (const ObjectId inref_obj : inset_it->second) {
    // Local steps stay on this site; sent as self-messages to keep every
    // step asynchronous (they are not inter-site traffic).
    transport_.Send(site_, site_,
                  BackRemoteCallMsg{msg.trace, inref_obj,
                                    FrameId{site_, frame.id}});
  }
  ArmTimeout(frame.id, msg.trace);
  (void)envelope;
}

void BackTracer::HandleRemoteCall(const Envelope& envelope,
                                  const BackRemoteCallMsg& msg) {
  ++stats_.calls_handled;
  DGC_CHECK(msg.ref.site == site_);
  InrefEntry* entry = tables_.FindInref(msg.ref);
  if (entry == nullptr) {
    // Deleted inref: defensively treat a persistent-root object as live
    // (possible only under races; costs nothing).
    const BackResult result = is_root_object_(msg.ref) ? BackResult::kLive
                                                       : BackResult::kGarbage;
    Reply(msg.trace, msg.caller, result, {site_});
    return;
  }
  if (entry->garbage_flagged) {
    // Already condemned by a completed trace; equivalent to deleted.
    Reply(msg.trace, msg.caller, BackResult::kGarbage, {site_});
    return;
  }
  if (is_root_object_(msg.ref) ||
      entry->clean(tables_.config().suspicion_threshold)) {
    Reply(msg.trace, msg.caller, BackResult::kLive, {site_});
    return;
  }
  if (entry->IsVisitedBy(msg.trace)) {
    Reply(msg.trace, msg.caller, BackResult::kGarbage, {site_});
    return;
  }
  if (TryCoalesce(entry->visited, msg.trace, msg.caller, IorefKind::kInref,
                  msg.ref)) {
    return;
  }
  entry->MarkVisited(msg.trace);
  entry->back_threshold =
      AddDistance(entry->back_threshold, tables_.config().back_threshold_increment);
  VisitRecord& record = TouchRecord(msg.trace);
  record.inrefs.push_back(msg.ref);
  record.last_touched = scheduler_.now();

  if (entry->sources.empty()) {
    Reply(msg.trace, msg.caller, BackResult::kGarbage, {site_});
    return;
  }
  Frame& frame = CreateFrame(msg.trace, msg.caller, IorefKind::kInref, msg.ref);
  frame.pending = static_cast<int>(entry->sources.size());
  for (const auto& [source, info] : entry->sources) {
    (void)info;
    // Remote step: one inter-site call per source holding the reference —
    // the "2" in the 2E + P message bound (Section 4.6).
    const BackLocalCallMsg call{msg.trace, msg.ref, FrameId{site_, frame.id}};
    if (source == site_) {
      transport_.Send(site_, source, call);
    } else if (ShouldPark(source)) {
      ParkCall(source, call, frame);
    } else {
      QueueBackCall(source, call);
    }
  }
  ArmTimeout(frame.id, msg.trace);
  (void)envelope;
}

bool BackTracer::ShouldPark(SiteId dest) const {
  return tables_.config().park_on_suspected_failure &&
         transport_.failure_detection_enabled() &&
         transport_.IsPeerSuspected(site_, dest);
}

void BackTracer::ParkCall(SiteId dest, const BackLocalCallMsg& call,
                          Frame& frame) {
  parked_calls_[dest].push_back(ParkedCall{call, frame.id});
  ++frame.parked;
  ++stats_.calls_parked;
  DGC_LOG_DEBUG("site " << site_ << ": " << call.trace
                        << " parks remote step to suspected site " << dest);
}

void BackTracer::OnPeerRecovered(SiteId peer) {
  const auto it = parked_calls_.find(peer);
  if (it == parked_calls_.end()) return;
  std::vector<ParkedCall> resumed = std::move(it->second);
  parked_calls_.erase(it);
  for (const ParkedCall& parked : resumed) {
    Frame* frame = frames_.Find(parked.frame_id);
    if (frame == nullptr || frame->trace != parked.call.trace) {
      // The frame died while its child was parked (crash-restart dropped
      // the volatile state, or a concurrent clean-rule answer completed
      // it); the resumed step has no caller left to answer.
      continue;
    }
    DGC_CHECK(frame->parked > 0);
    --frame->parked;
    ++stats_.calls_unparked;
    QueueBackCall(peer, parked.call);
    if (frame->parked == 0 && frame->timeout_deferred) {
      frame->timeout_deferred = false;
      ArmTimeout(frame->id, frame->trace);
    }
  }
}

void BackTracer::OnPeerRestarted(SiteId peer) {
  if (peer == site_) return;
  const auto dead = [peer](TraceId trace) { return trace.initiator == peer; };
  // Frames of the peer's traces first: every reply they could produce climbs
  // toward an activation frame that died with the old incarnation (anything
  // still in flight is discarded by stale-incarnation fencing). Erasing
  // without finalizing is deliberate — there is no live caller to answer.
  std::vector<std::uint64_t> dead_frames;
  frames_.ForEach([&](Frame& frame) {
    if (dead(frame.trace)) dead_frames.push_back(frame.id);
  });
  for (const std::uint64_t id : dead_frames) frames_.Erase(id);
  // Queued and parked steps of those traces must not be dispatched: landing
  // on a live site they would re-mark iorefs visited for a trace that can
  // never report, recreating exactly the wedge being scrubbed. (Parked
  // calls of *live* traces are untouched; OnPeerRecovered resumes them.)
  for (auto& [dest, calls] : pending_calls_) {
    std::erase_if(calls, [&](const BackLocalCallMsg& c) { return dead(c.trace); });
  }
  for (auto& [dest, calls] : parked_calls_) {
    std::erase_if(calls, [&](const ParkedCall& p) { return dead(p.call.trace); });
  }
  // Scrub the visit records. Waiters coalesced onto a dead trace's record
  // are resolved Live (safe; re-dispatch lets their traces traverse the
  // region themselves now that the marks clear). Waiters that *belong* to a
  // dead trace are dropped everywhere first, so no resolution below can
  // requeue a call on the dead trace's behalf.
  for (auto& [trace, record] : visit_records_) {
    (void)trace;
    std::erase_if(record.waiters,
                  [&](const Waiter& w) { return dead(w.trace); });
  }
  for (std::size_t i = 0; i < visit_records_.size();) {
    if (dead(visit_records_[i].first)) {
      VisitRecord& record = visit_records_[i].second;
      ResolveWaiters(record, BackResult::kLive);
      ClearRecordMarks(record, visit_records_[i].first);
      ++stats_.records_scrubbed;
      visit_records_[i] = std::move(visit_records_.back());
      visit_records_.pop_back();
    } else {
      ++i;
    }
  }
}

void BackTracer::HandleCallBatch(const Envelope& envelope,
                                 const BackCallBatchMsg& msg) {
  for (const BackLocalCallMsg& call : msg.calls) {
    HandleLocalCall(envelope, call);
  }
}

void BackTracer::QueueBackCall(SiteId dest, const BackLocalCallMsg& call) {
  pending_calls_[dest].push_back(call);
  if (!flush_scheduled_) {
    flush_scheduled_ = true;
    // Flush at the current instant but after every already-queued handler at
    // this timestamp has run (the scheduler is FIFO at equal times), so all
    // sibling fan-outs of this instant land in the same batch.
    scheduler_.After(0, [this] { FlushPendingCalls(); });
  }
}

void BackTracer::FlushPendingCalls() {
  flush_scheduled_ = false;
  std::map<SiteId, std::vector<BackLocalCallMsg>> pending;
  pending.swap(pending_calls_);
  for (auto& [dest, calls] : pending) {
    if (calls.size() == 1) {
      // A lone call ships as the plain message: the batch framing buys
      // nothing and the per-trace message counts of §4.6 stay exact.
      transport_.Send(site_, dest, calls.front());
    } else {
      stats_.calls_batched += calls.size();
      ++stats_.call_batches_sent;
      transport_.Send(site_, dest, BackCallBatchMsg{std::move(calls)});
    }
  }
}

void BackTracer::HandleReply(const BackReplyMsg& msg) {
  Frame* found = frames_.Find(msg.to.frame);
  if (found == nullptr || found->trace != msg.trace) {
    return;  // frame already completed (timeout) — stale reply
  }
  Frame& frame = *found;
  for (const SiteId participant : msg.participants) {
    AddParticipant(frame, participant);
  }
  if (msg.result == BackResult::kLive) frame.result = BackResult::kLive;
  DGC_CHECK(frame.pending > 0);
  --frame.pending;
  if (frame.pending == 0) CompleteFrame(frame);
}

void BackTracer::Reply(TraceId trace, FrameId to, BackResult result,
                       std::vector<SiteId> participants) {
  transport_.Send(site_, to.site,
                BackReplyMsg{trace, to, result, std::move(participants)});
}

void BackTracer::CompleteFrame(Frame& frame) {
  AddParticipant(frame, site_);
  if (frame.is_root) {
    const BackResult outcome = frame.result;
    DGC_LOG_DEBUG("site " << site_ << ": " << frame.trace << " completed "
                          << (outcome == BackResult::kGarbage ? "Garbage"
                                                              : "Live")
                          << " with " << frame.participants.size()
                          << " participants");
    if (outcome == BackResult::kGarbage) {
      ++stats_.traces_completed_garbage;
    } else {
      ++stats_.traces_completed_live;
    }
    // Report phase (Section 4.5): one message per participant, the P term of
    // the 2E + P bound. The initiator is a participant too; its report is a
    // self-delivery.
    for (const SiteId participant : frame.participants) {
      transport_.Send(site_, participant, BackReportMsg{frame.trace, outcome});
    }
    if (outcome_observer_) {
      outcome_observer_(TraceOutcome{frame.trace, frame.start_outref, outcome,
                                     frame.started_at, scheduler_.now(),
                                     frame.participants.size()});
    }
  } else {
    Reply(frame.trace, frame.parent, frame.result,
          std::move(frame.participants));
  }
  frames_.Erase(frame.id);
}

BackTracer::Frame& BackTracer::CreateFrame(TraceId trace, FrameId parent,
                                           IorefKind kind, ObjectId ioref) {
  Frame frame;
  frame.trace = trace;
  frame.parent = parent;
  frame.kind = kind;
  frame.ioref = ioref;
  ++stats_.frames_created;
  const std::uint64_t id = frames_.Insert(std::move(frame));
  Frame* stored = frames_.Find(id);
  stored->id = id;
  return *stored;
}

void BackTracer::AddParticipant(Frame& frame, SiteId s) {
  const auto it =
      std::lower_bound(frame.participants.begin(), frame.participants.end(), s);
  if (it == frame.participants.end() || *it != s) {
    frame.participants.insert(it, s);
  }
}

void BackTracer::ArmTimeout(std::uint64_t frame_id, TraceId trace) {
  const SimTime timeout = tables_.config().back_call_timeout;
  if (timeout <= 0) return;
  scheduler_.After(timeout, [this, frame_id, trace] {
    Frame* found = frames_.Find(frame_id);
    if (found == nullptr || found->trace != trace) return;
    Frame& frame = *found;
    if (frame.pending <= 0) return;
    if (frame.parked > 0) {
      // Children are parked on a suspected peer: the silence is explained
      // by the outage, not by a lost reply, so assuming Live now would
      // manufacture exactly the spurious verdict parking exists to avoid.
      // OnPeerRecovered arms a fresh timeout when the calls resume. (Not
      // re-armed here: a perpetual re-check chain would keep the
      // drain-to-idle scheduler from ever going idle.)
      frame.timeout_deferred = true;
      return;
    }
    // A missing reply is safely assumed Live (Section 4.6).
    ++stats_.timeouts;
    frame.result = BackResult::kLive;
    frame.pending = 0;
    CompleteFrame(frame);
  });
}

void BackTracer::OnIorefCleaned(IorefKind kind, ObjectId ref) {
  frames_.ForEach([&](Frame& frame) {
    if (frame.kind == kind && frame.ioref == ref &&
        frame.result != BackResult::kLive) {
      frame.result = BackResult::kLive;
      ++stats_.clean_rule_hits;
      DGC_LOG_DEBUG("site " << site_ << ": clean rule forces " << frame.trace
                            << " Live at "
                            << (kind == IorefKind::kInref ? "inref " : "outref ")
                            << ref);
    }
  });
}

void BackTracer::HandleReport(const BackReportMsg& msg) {
  for (std::size_t i = 0; i < visit_records_.size(); ++i) {
    if (visit_records_[i].first != msg.trace) continue;
    VisitRecord& record = visit_records_[i].second;
    // Calls that coalesced onto this trace inherit its verdict: a Garbage
    // closure is rootless for every backward path through it (the trace
    // fanned out fully from each visited ioref), and Live is always safe.
    ResolveWaiters(record, msg.outcome);
    if (msg.outcome == BackResult::kGarbage) {
      for (const ObjectId inref_obj : record.inrefs) {
        if (InrefEntry* entry = tables_.FindInref(inref_obj)) {
          if (!entry->garbage_flagged) {
            entry->garbage_flagged = true;
            ++stats_.inrefs_flagged;
          }
        }
      }
    }
    ClearRecordMarks(record, msg.trace);
    visit_records_[i] = std::move(visit_records_.back());
    visit_records_.pop_back();
    return;
  }
}

void BackTracer::ExpireStaleRecords() {
  const SimTime timeout = tables_.config().report_timeout;
  if (timeout <= 0) return;
  const SimTime now = scheduler_.now();
  for (std::size_t i = 0; i < visit_records_.size();) {
    VisitRecord& record = visit_records_[i].second;
    if (now - record.last_touched >= timeout) {
      // Assume the outcome was Live (Section 4.6): clear the marks and
      // answer any parked calls Live (always safe).
      ResolveWaiters(record, BackResult::kLive);
      ClearRecordMarks(record, visit_records_[i].first);
      ++stats_.records_expired;
      visit_records_[i] = std::move(visit_records_.back());
      visit_records_.pop_back();
    } else {
      ++i;
    }
  }
}

void BackTracer::DropVolatileState() {
  frames_.Clear();
  for (const auto& [trace, record] : visit_records_) {
    ClearRecordMarks(record, trace);
  }
  visit_records_.clear();
  pending_calls_.clear();
  parked_calls_.clear();
}

void BackTracer::ClearRecordMarks(const VisitRecord& record, TraceId trace) {
  for (const ObjectId inref_obj : record.inrefs) {
    if (InrefEntry* entry = tables_.FindInref(inref_obj)) {
      entry->ClearVisited(trace);
    }
  }
  for (const ObjectId outref : record.outrefs) {
    if (OutrefEntry* entry = tables_.FindOutref(outref)) {
      entry->ClearVisited(trace);
    }
  }
}

BackTracer::VisitRecord* BackTracer::FindRecord(TraceId trace) {
  for (auto& [t, record] : visit_records_) {
    if (t == trace) return &record;
  }
  return nullptr;
}

BackTracer::VisitRecord& BackTracer::TouchRecord(TraceId trace) {
  if (VisitRecord* record = FindRecord(trace)) return *record;
  visit_records_.emplace_back(trace, VisitRecord{});
  return visit_records_.back().second;
}

bool BackTracer::TryCoalesce(const std::vector<TraceId>& visited,
                             TraceId trace, FrameId caller, IorefKind kind,
                             ObjectId ref) {
  if (visited.empty()) return false;
  // Defer only to a *senior* trace (smaller TraceId): juniors wait for
  // seniors, never the reverse, so waiting chains are acyclic. Pick the most
  // senior in case several cover this ioref.
  const TraceId* senior = nullptr;
  for (const TraceId& t : visited) {
    if (t < trace && (senior == nullptr || t < *senior)) senior = &t;
  }
  if (senior == nullptr) return false;
  // A visited mark is always paired with a live visit record on this site
  // (marks are cleared whenever the record is dropped); check defensively
  // and traverse normally if the pairing is ever broken. Never park on a
  // record already known to be stranded.
  VisitRecord* record = FindRecord(*senior);
  if (record == nullptr || record->stranded) return false;
  record->waiters.push_back(Waiter{trace, caller, kind, ref});
  record->last_touched = scheduler_.now();
  ++stats_.branches_coalesced;
  DGC_LOG_DEBUG("site " << site_ << ": " << trace << " coalesced onto "
                        << *senior);
  // Bound the wait: if the covering trace's report has not resolved this
  // waiter within half a call timeout, assume the record is stranded (its
  // report may never come), stop coalescing onto it, and re-dispatch the
  // call so the waiting trace makes progress before its own caller times
  // out. Without this bound, one stranded record poisons every later trace
  // through the shared region into timing out, round after round.
  const SimTime call_timeout = tables_.config().back_call_timeout;
  if (call_timeout > 0) {
    scheduler_.After(std::max<SimTime>(1, call_timeout / 2),
                     [this, covering = *senior, trace, caller] {
                       VisitRecord* rec = FindRecord(covering);
                       if (rec == nullptr) return;
                       for (std::size_t i = 0; i < rec->waiters.size(); ++i) {
                         const Waiter& w = rec->waiters[i];
                         if (w.trace != trace || w.caller != caller) continue;
                         const Waiter expired = w;
                         rec->waiters.erase(rec->waiters.begin() + i);
                         rec->stranded = true;
                         RequeueWaiter(expired);
                         return;
                       }
                     });
  }
  return true;
}

void BackTracer::ResolveWaiters(VisitRecord& record, BackResult outcome) {
  for (const Waiter& waiter : record.waiters) {
    if (outcome == BackResult::kGarbage) {
      // The covering trace proved its visited closure rootless; every
      // backward path from the shared ioref lies inside it. Inherit.
      Reply(waiter.trace, waiter.caller, outcome, {site_});
      ++stats_.waiters_resolved;
    } else {
      // Live proves nothing about the waiter's region (some other branch of
      // the covering trace found a root). Re-dispatch the deferred call: it
      // is handled after the caller clears the covering trace's marks, so
      // the waiting trace traverses the region itself instead of inheriting
      // a verdict that could starve a garbage cycle forever.
      RequeueWaiter(waiter);
    }
  }
  record.waiters.clear();
}

void BackTracer::RequeueWaiter(const Waiter& waiter) {
  if (waiter.kind == IorefKind::kOutref) {
    transport_.Send(site_, site_,
                  BackLocalCallMsg{waiter.trace, waiter.ref, waiter.caller});
  } else {
    transport_.Send(site_, site_,
                  BackRemoteCallMsg{waiter.trace, waiter.ref, waiter.caller});
  }
  ++stats_.waiters_requeued;
}

}  // namespace dgc
