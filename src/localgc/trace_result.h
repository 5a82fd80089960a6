// The outcome of one local trace, computed as a snapshot.
//
// To model non-atomic local tracing (Section 6.2), the collector *computes*
// everything against the heap as of the trace's start, and the site *applies*
// the result when the trace's simulated duration elapses. In between, back
// traces are served from the old back information and transfer-barrier
// cleanings are recorded for replay into this new copy.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "backinfo/outset_store.h"
#include "backinfo/site_back_info.h"
#include "common/distance.h"
#include "common/ids.h"

namespace dgc {

struct LocalTraceStats {
  std::uint64_t objects_marked_clean = 0;
  std::uint64_t objects_marked_suspect = 0;
  std::uint64_t objects_swept = 0;
  std::uint64_t edges_scanned_clean = 0;
  std::uint64_t suspect_objects_traced = 0;
  std::uint64_t suspect_edges_scanned = 0;
  std::uint64_t suspected_inrefs = 0;
  std::uint64_t suspected_outrefs = 0;
  OutsetStore::Stats outset_stats;
  std::size_t distinct_outsets = 0;
  std::size_t back_info_elements = 0;
  /// Real (wall-clock) duration of the trace computation, for throughput
  /// instrumentation only — never fed back into simulated time.
  std::uint64_t trace_wall_ns = 0;
  /// Wall time of the clean-mark phase (phase 1) alone, sequential or
  /// parallel. Zero when a reuse level skipped marking entirely.
  std::uint64_t mark_wall_ns = 0;
  /// Work-stealing mark only (mark_threads > 1): batches taken from another
  /// worker's deque, and batches published to deques. Schedule-dependent —
  /// excluded from determinism comparisons, like the wall times.
  std::uint64_t mark_steals = 0;
  std::uint64_t mark_batches = 0;

  // --- Incremental-trace accounting (zero when incremental_trace is off) --
  /// Objects actually visited by this trace. A full trace re-traces every
  /// live object; a level-1 reuse re-traces none (marks are reused); a
  /// quiescent skip re-traces none and also bumps quiescent_skips.
  std::uint64_t objects_retraced = 0;
  /// Suspect outsets served from the previous trace's memoized back info
  /// instead of being recomputed.
  std::uint64_t outsets_reused = 0;
  /// 1 when this result is a verbatim reuse of the previous epoch's trace
  /// on a provably quiescent site (sites aggregate it into a counter).
  std::uint64_t quiescent_skips = 0;
};

struct TraceResult {
  std::uint64_t epoch = 0;

  /// Outrefs that existed when the trace started (apply only touches these;
  /// outrefs created mid-trace keep their fresh clean state untouched).
  std::set<ObjectId> snapshot_outrefs;
  std::set<ObjectId> snapshot_inrefs;

  /// New distance per surviving (reached) outref.
  std::map<ObjectId, Distance> outref_distances;

  /// Outrefs reached from a root or clean inref ("traced clean").
  std::set<ObjectId> outrefs_clean;

  /// Snapshot outrefs reached by no trace: to be dropped at apply time
  /// (unless pinned or barrier-cleaned meanwhile).
  std::set<ObjectId> outrefs_untraced;

  /// Objects unreachable at the start of the trace, to be swept at apply.
  std::vector<ObjectId> objects_to_free;

  /// The new back information (outsets of suspected inrefs + inverse).
  SiteBackInfo back_info;

  LocalTraceStats stats;
};

}  // namespace dgc
