// The local tracing collector (Sections 2, 3 and 5).
//
// Each site traces independently, treating persistent roots, application
// roots and incoming inter-site references (inrefs) as roots. The trace:
//
//   1. marks objects reachable from roots and *clean* inrefs (estimated
//      distance <= the suspicion threshold), processing inrefs in increasing
//      distance order so that the first touch of an outref yields its minimum
//      distance (Section 3's distance propagation);
//   2. traces the remaining, *suspected* inrefs with the SCC-aware bottom-up
//      outset computation of Section 5.2, producing the back information used
//      by back traces;
//   3. records the objects and outrefs reached by neither phase for sweeping
//      and trimming.
//
// Marks are one stamp per heap slot: trace e stamps 2e + 1 on what phase 1
// reaches and 2e on what only phase 2 reaches. Phase 1 ends before phase 2
// starts and phase 2 never enters a clean object, so no object is stamped
// twice in one trace; every older stamp reads below 2e, so the sweep frees
// every stamp below 2e and no pass ever clears the marks.
//
// Garbage-flagged inrefs (confirmed by a completed back trace) are not roots,
// which is how a confirmed cycle actually dies (Section 4.5).
//
// Trace reuse: a trace is a pure function of a small, exactly snapshotable
// input set — heap contents + persistent/application roots, each inref's
// (distance, garbage_flagged), and each outref's pinned bit. Nothing else
// feeds Run: barrier overrides and back thresholds are consumed elsewhere.
// Every run snapshots those inputs and compares them with the cached trace's
// snapshot (heap equality is one integer — the Heap's monotone mutation
// epoch):
//
//   * all inputs identical  -> quiescent skip: the cached TraceResult is
//     re-served verbatim with only the epoch bumped;
//   * only *suspected* inref distances drifted (the steady ripening the
//     distance heuristic produces every epoch) -> marks, sweep set, back
//     information and memoized outsets are reused and only the distance
//     aggregation is re-folded from the cached outsets;
//   * anything else -> full trace, which computes every suspect's outset
//     afresh, rebuilds the inverse inset view from them, and refreshes the
//     cache.
//
// A full trace that frees objects caches nothing: applying it bumps the
// mutation epoch, so the next trace is full anyway. A reused result reports
// no marks and no mark time, since that run marked nothing.
//
// Both reuse levels are exact, not approximate: phase-2 outsets are
// graph-theoretic (order-independent), so every reused field is what the
// full trace would have computed — the set_check_reuse_for_testing hook
// asserts exactly that by running the cache-free full trace beside every
// reuse and comparing.
#pragma once

#include <vector>

#include "backinfo/outset_store.h"
#include "localgc/trace_result.h"
#include "refs/tables.h"
#include "store/heap.h"

namespace dgc {

class LocalCollector {
 public:
  LocalCollector(Heap& heap, RefTables& tables)
      : heap_(heap), tables_(tables) {}

  LocalCollector(const LocalCollector&) = delete;
  LocalCollector& operator=(const LocalCollector&) = delete;

  /// Computes one local trace against the current heap. `app_roots` are the
  /// local objects held in mutator variables (Section 6.3); remote references
  /// held in variables are covered by their pinned outrefs. Pure computation:
  /// mutates only per-object mark stamps, never tables or heap membership.
  TraceResult Run(const std::vector<ObjectId>& app_roots);

  /// Epoch of the most recent trace (0 before the first).
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Everything the trace's outcome depends on, captured exactly. Two equal
  /// snapshots prove two traces would compute identical results.
  struct TraceInputs {
    std::uint64_t heap_mutation_epoch = 0;
    std::vector<ObjectId> persistent_roots;
    std::vector<ObjectId> app_roots;
    struct Inref {
      ObjectId obj;
      Distance distance = 0;
      bool garbage_flagged = false;
      friend bool operator==(const Inref&, const Inref&) = default;
    };
    std::vector<Inref> inrefs;  // table order (sorted by object id)
    struct Outref {
      ObjectId ref;
      bool pinned = false;
      friend bool operator==(const Outref&, const Outref&) = default;
    };
    std::vector<Outref> outrefs;  // table order (sorted by ref id)
    friend bool operator==(const TraceInputs&, const TraceInputs&) = default;
  };

  /// Drops the previous-trace cache, so the next trace is full (crash
  /// restart: the cache is volatile acceleration state; the persistent
  /// OutsetStore is a pure content-keyed memo and survives).
  void InvalidateCache();

  /// True when a previous trace is cached and eligible for reuse checks.
  [[nodiscard]] bool cache_valid() const { return cache_.valid; }

  /// Test hook: every reused trace also runs the full trace and must agree
  /// with it on every semantic field (snapshots, distances, cleanliness,
  /// sweep set, back information), or the run aborts. Costs a full trace
  /// per reuse.
  void set_check_reuse_for_testing(bool on) { check_reuse_ = on; }

 private:
  enum class ReuseLevel {
    kNone,        // inputs changed: full trace
    kRefold,      // only suspected-inref distances drifted
    kQuiescent,   // all inputs identical
  };

  /// Marks everything reachable from `root` as clean, recording first-touch
  /// distances of outrefs. `distance` is the root's estimated distance.
  void MarkCleanFrom(ObjectId root, Distance distance, TraceResult& result);

  [[nodiscard]] TraceInputs SnapshotInputs(
      const std::vector<ObjectId>& app_roots) const;
  [[nodiscard]] ReuseLevel ClassifyReuse(const TraceInputs& inputs) const;

  /// The classic three-phase trace. When `inputs_for_cache` is non-null the
  /// run also refreshes the reuse cache; null is the cache-free oracle the
  /// reuse check runs.
  TraceResult RunFullTrace(const std::vector<ObjectId>& app_roots,
                           const TraceInputs* inputs_for_cache);

  /// The cached result re-served at this epoch, with no marking work.
  [[nodiscard]] TraceResult CachedResult() const;

  /// Level-1 reuse: cached marks/outsets/back info, distances re-folded from
  /// the cached clean-phase distances plus each suspect's cached outset.
  [[nodiscard]] TraceResult RefoldDistances(const TraceInputs& inputs) const;

  /// Differential harness: aborts unless the two results agree on every
  /// semantic field (snapshots, distances, cleanliness, sweep, back info).
  void CheckEquivalent(const TraceResult& reused,
                       const TraceResult& full) const;

  Heap& heap_;
  RefTables& tables_;
  bool check_reuse_ = false;
  std::uint64_t epoch_ = 0;
  /// Scratch mark stack, reused across traces so the hot loop never
  /// reallocates once the heap's size has been seen. It holds decoded
  /// objects that have slots: a popped object is never decoded again, and
  /// a leaf is never pushed.
  std::vector<const Object*> mark_stack_;
  /// Ref -> column position for the outref column of the last full trace.
  /// Both reuse levels require identical TraceInputs::outrefs, so the
  /// column a refold or quiescent skip serves has exactly the refs, in the
  /// same order, that this index was built from.
  OutrefIndex outref_index_;
  /// Persistent across traces: suspects with outsets already seen in any
  /// earlier epoch intern to the same id, and union memo hits carry over.
  OutsetStore store_;

  struct TraceCache {
    bool valid = false;
    TraceInputs inputs;
    TraceResult result;
    /// The outref column as of the end of phase 1 (pins + clean marking),
    /// before suspect contributions — the base the refold starts from.
    std::vector<OutrefRecord> clean_outrefs;
  };
  TraceCache cache_;
};

}  // namespace dgc
