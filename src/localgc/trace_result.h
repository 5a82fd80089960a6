// The outcome of one local trace, computed as a snapshot.
//
// To model non-atomic local tracing (Section 6.2), the collector *computes*
// everything against the heap as of the trace's start, and the site *applies*
// the result when the trace's simulated duration elapses. In between, back
// traces are served from the old back information and transfer-barrier
// cleanings are recorded for replay into this new copy.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "backinfo/outset_store.h"
#include "backinfo/site_back_info.h"
#include "common/check.h"
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
  /// Wall time of the clean-mark phase (phase 1) alone. Zero, like the
  /// mark and scan counts above, when a reuse level skipped marking.
  std::uint64_t mark_wall_ns = 0;

  // --- Trace-reuse accounting -------------------------------------------
  /// Suspect outsets served from the previous trace's memoized back info
  /// instead of being recomputed.
  std::uint64_t outsets_reused = 0;
  /// 1 when this result is a verbatim reuse of the previous epoch's trace
  /// on a provably quiescent site (sites aggregate it into a counter).
  std::uint64_t quiescent_skips = 0;
};

/// What one trace learned about one snapshot outref. `reached` is its own
/// bit because a suspected inref at kDistanceInfinity legitimately reaches
/// outrefs at infinity: only an unreached outref is trimmed.
struct OutrefRecord {
  ObjectId ref;
  bool reached = false;  // by a pin, a root, or any inref
  bool clean = false;    // pinned, or reached from a root or clean inref
  Distance distance = kDistanceInfinity;  // minimum over reaching paths

  /// Folds in one path to the outref; `clean_path` when it starts at a
  /// pin, a root or a clean inref.
  void Reach(Distance d, bool clean_path) {
    reached = true;
    clean = clean || clean_path;
    distance = std::min(distance, d);
  }
  friend bool operator==(const OutrefRecord&, const OutrefRecord&) = default;
};

/// Binary search of a column sorted by ref. Every remote ref a heap object
/// holds has an outref, so a miss is an invariant violation.
template <typename Column>
auto& FindOutrefRecord(Column& column, ObjectId ref) {
  const auto it = std::lower_bound(
      column.begin(), column.end(), ref,
      [](const OutrefRecord& record, ObjectId id) { return record.ref < id; });
  DGC_CHECK_MSG(it != column.end() && it->ref == ref,
                "object holds remote ref " << ref << " with no outref");
  return *it;
}

struct TraceResult {
  std::uint64_t epoch = 0;

  /// One record per outref that existed when the trace started, in
  /// outref-table order. Apply touches only these; outrefs created mid-trace
  /// keep their fresh clean state. Unreached records are trimmed at apply
  /// time unless pinned or barrier-cleaned meanwhile.
  std::vector<OutrefRecord> outrefs;
  /// Inrefs that existed when the trace started, in inref-table order.
  std::vector<ObjectId> snapshot_inrefs;

  /// Objects unreachable at the start of the trace, to be swept at apply.
  std::vector<ObjectId> objects_to_free;

  /// The new back information (outsets of suspected inrefs + inverse).
  SiteBackInfo back_info;

  LocalTraceStats stats;
};

}  // namespace dgc
