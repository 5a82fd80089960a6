// The outcome of one local trace, computed as a snapshot.
//
// To model non-atomic local tracing (Section 6.2), the collector *computes*
// everything against the heap as of the trace's start, and the site *applies*
// the result when the trace's simulated duration elapses. In between, back
// traces are served from the old back information and transfer-barrier
// cleanings are recorded for replay into this new copy.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "backinfo/site_back_info.h"
#include "common/check.h"
#include "common/distance.h"
#include "common/ids.h"

namespace dgc {

struct LocalTraceStats {
  std::uint64_t objects_marked_clean = 0;
  std::uint64_t objects_marked_suspect = 0;
  std::uint64_t objects_swept = 0;
  std::uint64_t suspected_inrefs = 0;
  std::uint64_t suspected_outrefs = 0;
  /// Real (wall-clock) duration of the trace computation, for throughput
  /// instrumentation only — never fed back into simulated time.
  std::uint64_t trace_wall_ns = 0;
  /// Wall time of the clean-mark phase (phase 1) alone. Zero, like the
  /// mark counts above, when a reuse level skipped marking.
  std::uint64_t mark_wall_ns = 0;

  // --- Trace-reuse accounting -------------------------------------------
  /// Suspect outsets served from the previous trace's memoized back info
  /// instead of being recomputed: every outset of a refold or quiescent
  /// skip, none of a full trace.
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

/// Open-addressed hash index from an outref's ref to the position of its
/// record in a trace's outref column. A full trace builds it beside the
/// column; the clean mark, the suspect tracer's cleanliness test, the suspect
/// outset fold and the distance refold look records up through it.
class OutrefIndex {
 public:
  /// Indexes `column`, whose refs are distinct.
  void Build(const std::vector<OutrefRecord>& column) {
    DGC_CHECK(column.size() < kEmpty);
    std::size_t capacity = 2;  // at most half full: short probe runs
    while (capacity < 2 * column.size()) capacity *= 2;
    shift_ = 64 - std::countr_zero(capacity);
    positions_.assign(capacity, kEmpty);
    const std::size_t mask = capacity - 1;
    for (std::size_t i = 0; i < column.size(); ++i) {
      std::size_t h = Home(column[i].ref);
      while (positions_[h] != kEmpty) h = (h + 1) & mask;
      positions_[h] = static_cast<std::uint32_t>(i);
    }
  }

  /// The record of `ref` in `column`, which must hold the refs the last
  /// Build saw in the same order. Every remote ref a heap object holds has
  /// an outref, so a miss is an invariant violation.
  template <typename Column>
  auto& Find(Column& column, ObjectId ref) const {
    DGC_DCHECK(!positions_.empty());
    const std::size_t mask = positions_.size() - 1;
    for (std::size_t h = Home(ref);; h = (h + 1) & mask) {
      const std::uint32_t position = positions_[h];
      if (position == kEmpty) FailNoOutref(ref);
      DGC_DCHECK(position < column.size());
      if (column[position].ref == ref) return column[position];
    }
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  /// Throws Find's miss violation. Out of line (local_collector.cc), so
  /// that Find stays small enough to inline into the clean mark's loop.
  [[noreturn]] static void FailNoOutref(ObjectId ref);

  /// The top bits of the id's hash (a splitmix64 mix) index the table.
  [[nodiscard]] std::size_t Home(ObjectId ref) const {
    return std::hash<ObjectId>{}(ref) >> shift_;
  }

  std::vector<std::uint32_t> positions_;  // kEmpty or a column position
  int shift_ = 64;
};

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
