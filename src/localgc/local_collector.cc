#include "localgc/local_collector.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "backinfo/suspect_trace.h"
#include "common/logging.h"

namespace dgc {

namespace {

/// Trace e's heap stamps (see local_collector.h): 2e + 1 clean, 2e suspect.
constexpr std::uint64_t SuspectStamp(std::uint64_t e) { return 2 * e; }
constexpr std::uint64_t CleanStamp(std::uint64_t e) { return 2 * e + 1; }

/// Policy the suspect tracer uses to see this trace's clean results and to
/// mark suspect objects live for the sweep.
class SuspectEnv {
 public:
  SuspectEnv(Heap& heap, std::uint64_t epoch, const TraceResult& result,
             const OutrefIndex& index)
      : heap_(heap),
        clean_(CleanStamp(epoch)),
        suspect_(SuspectStamp(epoch)),
        result_(result),
        index_(index) {}

  [[nodiscard]] bool ObjectIsCleanMarked(ObjectId id) const {
    return heap_.mark(id) == clean_;
  }

  /// Clean for the purposes of outset membership: reached by this trace's
  /// clean phase, or pinned (insert barrier / mutator variable), which makes
  /// it forcibly clean until released.
  [[nodiscard]] bool OutrefIsClean(ObjectId remote_ref) const {
    return index_.Find(result_.outrefs, remote_ref).clean;
  }

  void OnSuspectMarked(ObjectId id) { heap_.set_mark(id, suspect_); }

 private:
  Heap& heap_;
  std::uint64_t clean_;
  std::uint64_t suspect_;
  const TraceResult& result_;
  const OutrefIndex& index_;
};

std::uint64_t WallNanosSince(
    const std::chrono::steady_clock::time_point& start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

void OutrefIndex::FailNoOutref(ObjectId ref) {
  std::ostringstream message;
  message << "object holds remote ref " << ref << " with no outref";
  detail::FailCheck("position != kEmpty", __FILE__, __LINE__, message.str());
}

void LocalCollector::MarkCleanFrom(ObjectId root, Distance distance,
                                   TraceResult& result) {
  if (!heap_.Exists(root)) return;  // stale app root; defensive
  // The stamp and the count live in locals: the stamp cells are uint64_t,
  // so every store to one would force a reload of a member of that type.
  const std::uint64_t clean = CleanStamp(epoch_);
  const Heap::Cell root_cell = heap_.GetCell(root);
  if (*root_cell.mark == clean) return;
  *root_cell.mark = clean;
  std::uint64_t marked = 1;
  std::vector<const Object*>& stack = mark_stack_;
  stack.clear();
  if (!root_cell.object->slots.empty()) stack.push_back(root_cell.object);
  std::vector<OutrefRecord>& outrefs = result.outrefs;
  const SiteId self = heap_.site();
  const Distance outref_distance = NextDistance(distance);
  while (!stack.empty()) {
    const Object& object = *stack.back();
    stack.pop_back();
    for (const ObjectId target : object.slots) {
      if (!target.valid()) continue;
      if (target.site != self) {
        // First touch wins the minimum distance because roots are processed
        // in increasing distance order.
        outref_index_.Find(outrefs, target).Reach(outref_distance, true);
        continue;
      }
      const Heap::Cell cell = heap_.GetCell(target);
      if (*cell.mark == clean) continue;
      *cell.mark = clean;
      ++marked;
      if (!cell.object->slots.empty()) stack.push_back(cell.object);
    }
  }
  result.stats.objects_marked_clean += marked;
}

LocalCollector::TraceInputs LocalCollector::SnapshotInputs(
    const std::vector<ObjectId>& app_roots) const {
  TraceInputs inputs;
  inputs.heap_mutation_epoch = heap_.mutation_epoch();
  inputs.persistent_roots = heap_.persistent_roots();
  inputs.app_roots = app_roots;
  inputs.inrefs.reserve(tables_.inrefs().size());
  for (const auto& [obj, entry] : tables_.inrefs()) {
    inputs.inrefs.push_back(
        TraceInputs::Inref{obj, entry.distance(), entry.garbage_flagged});
  }
  inputs.outrefs.reserve(tables_.outrefs().size());
  for (const auto& [ref, entry] : tables_.outrefs()) {
    inputs.outrefs.push_back(TraceInputs::Outref{ref, entry.pin_count > 0});
  }
  return inputs;
}

LocalCollector::ReuseLevel LocalCollector::ClassifyReuse(
    const TraceInputs& inputs) const {
  if (!cache_.valid) return ReuseLevel::kNone;
  if (inputs == cache_.inputs) return ReuseLevel::kQuiescent;
  // Level 1 requires everything except suspected-inref distances to be
  // identical: the clean phase then reruns bit-identically (same roots, same
  // clean inrefs at the same distances, same heap), the suspect SET and its
  // outsets are unchanged (outsets do not depend on suspect distances), and
  // only the distance fold over those outsets needs redoing.
  if (inputs.heap_mutation_epoch != cache_.inputs.heap_mutation_epoch ||
      inputs.persistent_roots != cache_.inputs.persistent_roots ||
      inputs.app_roots != cache_.inputs.app_roots ||
      inputs.outrefs != cache_.inputs.outrefs ||
      inputs.inrefs.size() != cache_.inputs.inrefs.size()) {
    return ReuseLevel::kNone;
  }
  const Distance threshold = tables_.config().suspicion_threshold;
  for (std::size_t i = 0; i < inputs.inrefs.size(); ++i) {
    const TraceInputs::Inref& past = cache_.inputs.inrefs[i];
    const TraceInputs::Inref& now = inputs.inrefs[i];
    if (past.obj != now.obj || past.garbage_flagged != now.garbage_flagged) {
      return ReuseLevel::kNone;
    }
    const bool was_clean = past.distance <= threshold;
    const bool is_clean = now.distance <= threshold;
    // Classification flips change the root set / suspect set; a *clean*
    // inref's distance feeds the clean phase's first-touch minima, so it
    // must match exactly. Suspect distances are free to drift.
    if (was_clean != is_clean) return ReuseLevel::kNone;
    if (is_clean && past.distance != now.distance) return ReuseLevel::kNone;
  }
  return ReuseLevel::kRefold;
}

TraceResult LocalCollector::CachedResult() const {
  TraceResult result = cache_.result;
  result.epoch = epoch_;
  // This run marked nothing: the cached trace's work must not be counted
  // twice.
  result.stats.objects_marked_clean = 0;
  result.stats.objects_marked_suspect = 0;
  result.stats.mark_wall_ns = 0;
  result.stats.quiescent_skips = 0;
  return result;
}

TraceResult LocalCollector::RefoldDistances(const TraceInputs& inputs) const {
  TraceResult result = CachedResult();
  result.outrefs = cache_.clean_outrefs;
  const Distance threshold = tables_.config().suspicion_threshold;
  std::vector<std::pair<Distance, const std::vector<ObjectId>*>> jobs;
  for (const TraceInputs::Inref& in : inputs.inrefs) {
    if (in.garbage_flagged || in.distance <= threshold) continue;
    // Suspects absent from the cached back info contributed nothing to the
    // fold last time either: they were clean-marked by phase 1 (dropped by
    // the auxiliary invariant of §6.1.1) or their outset was empty.
    const auto it = cache_.result.back_info.inref_outsets.find(in.obj);
    if (it == cache_.result.back_info.inref_outsets.end()) continue;
    jobs.emplace_back(NextDistance(in.distance), &it->second);
  }
  result.stats.outsets_reused = jobs.size();
  for (const auto& [outref_distance, outset] : jobs) {
    for (const ObjectId outref : *outset) {
      outref_index_.Find(result.outrefs, outref).Reach(outref_distance, false);
    }
  }
  return result;
}

void LocalCollector::CheckEquivalent(const TraceResult& reused,
                                     const TraceResult& full) const {
  const SiteId site = heap_.site();
#define DGC_DIFF_FIELD(field)                                               \
  DGC_CHECK_MSG(reused.field == full.field,                                 \
                "reused trace diverged from full trace on site "            \
                    << site << " epoch " << epoch_ << ": field " << #field)
  DGC_DIFF_FIELD(epoch);
  DGC_DIFF_FIELD(outrefs);
  DGC_DIFF_FIELD(snapshot_inrefs);
  DGC_DIFF_FIELD(objects_to_free);
  DGC_DIFF_FIELD(back_info);
#undef DGC_DIFF_FIELD
}

void LocalCollector::InvalidateCache() { cache_ = TraceCache{}; }

TraceResult LocalCollector::RunFullTrace(
    const std::vector<ObjectId>& app_roots,
    const TraceInputs* inputs_for_cache) {
  const CollectorConfig& config = tables_.config();
  TraceResult result;
  result.epoch = epoch_;

  // Worst-case mark-stack depth is the live-object count; reserving up front
  // keeps the hot loop free of reallocation (the buffer persists across
  // traces, so this is amortised to nothing in steady state).
  mark_stack_.reserve(heap_.object_count());

  result.outrefs.reserve(tables_.outrefs().size());
  for (const auto& [ref, entry] : tables_.outrefs()) {
    // A pinned outref is an application root / insert-barrier retention:
    // clean, distance 1, regardless of whether the heap reaches it.
    OutrefRecord& record = result.outrefs.emplace_back(OutrefRecord{ref});
    if (entry.pin_count > 0) record.Reach(1, /*clean_path=*/true);
  }
  outref_index_.Build(result.outrefs);
  result.snapshot_inrefs.reserve(tables_.inrefs().size());
  for (const auto& [obj, entry] : tables_.inrefs()) {
    (void)entry;
    result.snapshot_inrefs.push_back(obj);
  }

  // ---- Phase 1: clean marking, roots in increasing distance order. ----
  const auto mark_start = std::chrono::steady_clock::now();

  std::vector<std::pair<Distance, ObjectId>> ordered_inrefs;
  for (const auto& [obj, entry] : tables_.inrefs()) {
    if (entry.garbage_flagged) continue;  // confirmed garbage: not a root
    ordered_inrefs.emplace_back(entry.distance(), obj);
  }
  std::sort(ordered_inrefs.begin(), ordered_inrefs.end());
  auto clean_limit = std::partition_point(
      ordered_inrefs.begin(), ordered_inrefs.end(), [&](const auto& pair) {
        return pair.first <= config.suspicion_threshold;
      });

  for (const ObjectId root : heap_.persistent_roots()) {
    MarkCleanFrom(root, 0, result);
  }
  for (const ObjectId root : app_roots) {
    MarkCleanFrom(root, 0, result);
  }
  for (auto it = ordered_inrefs.begin(); it != clean_limit; ++it) {
    MarkCleanFrom(it->second, it->first, result);
  }
  result.stats.mark_wall_ns = WallNanosSince(mark_start);

  // The refold reuse level rebuilds distances from this phase-1 base, so
  // capture it before suspect contributions land on top.
  std::vector<OutrefRecord> clean_outrefs;
  if (inputs_for_cache != nullptr) clean_outrefs = result.outrefs;

  // ---- Phase 2: suspected inrefs — bottom-up outset computation (§5.2).
  // store_ persists across traces: recurring outsets intern to their old
  // ids and previously memoized unions stay hits. The computer sizes a side
  // array to the heap's slot capacity, so a trace without suspects builds
  // none.
  if (clean_limit != ordered_inrefs.end()) {
    store_.Reserve(
        static_cast<std::size_t>(ordered_inrefs.end() - clean_limit));
    SuspectEnv env(heap_, epoch_, result, outref_index_);
    BottomUpOutsetComputer<SuspectEnv> computer(heap_, store_, env);
    for (auto it = clean_limit; it != ordered_inrefs.end(); ++it) {
      const auto [distance, obj] = *it;
      ++result.stats.suspected_inrefs;
      DGC_CHECK_MSG(heap_.Exists(obj), "inref names a swept object " << obj);
      const OutsetStore::OutsetId outset_id = computer.TraceFrom(obj);
      const std::vector<ObjectId>& outset = store_.Get(outset_id);
      // An inref whose object was reached by the clean phase contributes an
      // empty outset and is dropped from the back information: it can never
      // appear in a suspected outref's inset (auxiliary invariant of §6.1.1).
      if (heap_.mark(obj) == CleanStamp(epoch_)) continue;
      const Distance outref_distance = NextDistance(distance);
      for (const ObjectId outref : outset) {
        outref_index_.Find(result.outrefs, outref)
            .Reach(outref_distance, false);
      }
      if (!outset.empty()) {
        result.back_info.inref_outsets.emplace(obj, outset);
      }
    }
    result.stats.objects_marked_suspect = computer.stats().objects_traced;
  }

  result.back_info.RecomputeInsets();
  result.stats.suspected_outrefs = result.back_info.outref_insets.size();

  // ---- Phase 3: sweep list (untraced outrefs are the unreached records).
  const std::uint64_t unmarked_below = SuspectStamp(epoch_);
  heap_.ForEachMark([&](ObjectId id, std::uint64_t mark) {
    if (mark < unmarked_below) result.objects_to_free.push_back(id);
  });
  result.stats.objects_swept = result.objects_to_free.size();

  if (inputs_for_cache != nullptr) {
    // Applying a sweep bumps the heap's mutation epoch, so an entry for a
    // result that frees objects could never hit: keep none.
    if (result.objects_to_free.empty()) {
      cache_ = TraceCache{true, *inputs_for_cache, result,
                          std::move(clean_outrefs)};
    } else {
      InvalidateCache();
    }
  }
  return result;
}

TraceResult LocalCollector::Run(const std::vector<ObjectId>& app_roots) {
  const auto wall_start = std::chrono::steady_clock::now();
  ++epoch_;

  TraceInputs inputs = SnapshotInputs(app_roots);
  const ReuseLevel level = ClassifyReuse(inputs);
  TraceResult result;
  switch (level) {
    case ReuseLevel::kQuiescent:
      result = CachedResult();
      result.stats.outsets_reused = result.back_info.inref_outsets.size();
      result.stats.quiescent_skips = 1;
      break;
    case ReuseLevel::kRefold:
      result = RefoldDistances(inputs);
      break;
    case ReuseLevel::kNone:
      result = RunFullTrace(app_roots, &inputs);
      break;
  }
  if (level != ReuseLevel::kNone) {
    if (check_reuse_) {
      // Shadow full trace at the same epoch (mark stamps are scratch);
      // must not clobber the cache the reuse was built from.
      const TraceResult full = RunFullTrace(app_roots, nullptr);
      CheckEquivalent(result, full);
    }
    cache_.inputs = std::move(inputs);
    cache_.result = result;
    // clean_outrefs is unchanged: both reuse levels require an identical
    // clean phase.
  }

  result.stats.trace_wall_ns = WallNanosSince(wall_start);

  DGC_LOG_DEBUG("site " << heap_.site() << " trace " << epoch_ << ": "
                        << result.stats.objects_marked_clean << " clean, "
                        << result.stats.objects_marked_suspect << " suspect, "
                        << result.stats.objects_swept << " swept, "
                        << result.stats.suspected_inrefs << " suspected inrefs, "
                        << result.stats.suspected_outrefs
                        << " suspected outrefs"
                        << (result.stats.quiescent_skips != 0
                                ? " (quiescent reuse)"
                                : ""));
  return result;
}

}  // namespace dgc
