// Inref/outref tables: the inter-site reference-listing substrate (Section 2)
// extended with the per-ioref state the paper's cycle collector needs —
// per-source distance estimates (Section 3), back thresholds (Section 4), and
// the clean overrides applied by the transfer and insert barriers (Section
// 6). Every field but an outref's pin count is durable, and each entry's
// Fields list names its durable ones: a site process's snapshot
// (net/site_host.h) is these two tables, encoded by the wire codec, so a new
// durable field joins its list and bumps kSnapshotVersion. A back trace's
// visited marks (Section 4.4) are volatile and live only in its visit record
// (backtrace/back_tracer.h).
//
// The tables are passive data plus pure operations; protocol logic (insert /
// update messages, barriers) lives in core::Site, and the trace that fills in
// distances lives in localgc.
#pragma once

#include <algorithm>
#include <tuple>
#include <vector>

#include "common/check.h"
#include "common/config.h"
#include "common/counters.h"
#include "common/distance.h"
#include "common/flat_map.h"
#include "common/ids.h"

namespace dgc {

enum class IorefKind : std::uint8_t { kInref, kOutref };

/// An entry in the table of incoming inter-site references. Keyed by the
/// local object it designates. Persistent and application roots are *not*
/// inref entries; they enter the local trace directly as distance-0 roots
/// (the paper models them as permanent inrefs — same semantics).
struct InrefEntry {
  // Declared largest first, so that an entry and its key fill 48 bytes on
  // a 64-bit build (refs_test checks it): an update's compaction pass moves
  // every entry after the first one it erases.

  /// Source sites known to contain the reference, each with the distance
  /// its last insert or update message reported (Section 3). Sorted flat
  /// map: iteration stays deterministic (site order) and the handful of
  /// sources per inref fit one cache line instead of a node apiece.
  FlatMap<SiteId, Distance> sources;

  /// Distance that must be exceeded before a back trace may start here;
  /// bumped on every back-trace visit (Section 4.3).
  Distance back_threshold = 0;

  /// Set when a back trace confirmed this inref garbage (Section 4.5). A
  /// flagged inref is no longer used as a root by the local trace; the entry
  /// itself is removed later by regular update messages, preserving
  /// referential integrity.
  bool garbage_flagged = false;

  /// Set by the transfer barrier (Section 6.1.1); cleared when the next
  /// local trace's results are applied.
  bool clean_override = false;

  /// Estimated distance: minimum over sources, infinity if none.
  [[nodiscard]] Distance distance() const {
    Distance d = kDistanceInfinity;
    for (const auto& [site, distance] : sources) d = std::min(d, distance);
    return d;
  }

  /// Clean iorefs terminate back traces with Live (Section 4.2).
  [[nodiscard]] bool clean(Distance suspicion_threshold) const {
    if (garbage_flagged) return false;
    return clean_override || distance() <= suspicion_threshold;
  }
};

auto Fields(Is<InrefEntry> auto& e) {
  return std::tie(e.sources, e.garbage_flagged, e.clean_override,
                  e.back_threshold);
}

/// An entry in the table of outgoing inter-site references. Keyed by the
/// remote object it designates.
struct OutrefEntry {
  /// Estimated distance: one plus the distance of the cleanest inref (or
  /// root) it was traced from at the last local trace (Section 3).
  Distance distance = kDistanceInfinity;

  /// True when the last local trace reached this outref from a persistent /
  /// application root or a clean inref ("objects and outrefs traced from
  /// them are said to be clean").
  bool traced_clean = false;

  /// Set by the transfer barrier or on fresh creation by a reference
  /// transfer (Section 6.1); cleared when the next trace's results apply.
  bool clean_override = false;

  /// Insert-barrier and application-root pins: while positive, the outref is
  /// forcibly clean and may not be trimmed (Section 6.1.2). Volatile.
  int pin_count = 0;

  /// Distance last reported to the target site in an update message, used to
  /// decide whether a new update is owed.
  Distance last_reported = kDistanceInfinity;

  Distance back_threshold = 0;

  [[nodiscard]] bool clean() const {
    return pin_count > 0 || clean_override || traced_clean;
  }
};

auto Fields(Is<OutrefEntry> auto& e) {
  return std::tie(e.distance, e.traced_clean, e.clean_override,
                  e.last_reported, e.back_threshold);
}

/// Both tables of one site. Sorted flat maps keep every iteration
/// deterministic (the same key order std::map gave) while lookups stay
/// cache-resident at 10^6-object scale.
///
/// Pointer discipline: Find*/Ensure* return pointers/references that any
/// later structural mutation of the same table (entry insert or remove)
/// invalidates. Callers use an entry pointer only within one handler and
/// never across an insertion — the discipline the call sites were audited
/// for when the tables moved off std::map.
class RefTables {
 public:
  using InrefMap = FlatMap<ObjectId, InrefEntry>;
  using OutrefMap = FlatMap<ObjectId, OutrefEntry>;

  explicit RefTables(SiteId site, const CollectorConfig& config)
      : site_(site), config_(config) {}

  RefTables(const RefTables&) = delete;
  RefTables& operator=(const RefTables&) = delete;

  [[nodiscard]] SiteId site() const { return site_; }

  // --- inrefs ---------------------------------------------------------

  /// Finds the inref for a local object, or nullptr.
  [[nodiscard]] InrefEntry* FindInref(ObjectId local_ref);
  [[nodiscard]] const InrefEntry* FindInref(ObjectId local_ref) const;

  /// Creates the inref if absent (with the configured initial back
  /// threshold) and returns it.
  InrefEntry& EnsureInref(ObjectId local_ref);

  /// Adds/updates a source site's distance. Creates the inref if needed.
  InrefEntry& AddInrefSource(ObjectId local_ref, SiteId source,
                             Distance distance);

  /// Applies one source's update message (Section 2) in one walk of the
  /// inref table. A removed entry drops `source` from its inref; any other
  /// entry overwrites that source's distance, and leaves an inref that does
  /// not list the source (or does not exist) alone: the news is stale. When
  /// a distance drop cleans an inref, `on_cleaned(ref)` runs the clean rule
  /// (Section 6.4). Each inref a removal leaves without a source is erased,
  /// all of them in one compaction pass: at the end, or before `on_cleaned`
  /// runs, so the callback always sees the table an entry-by-entry
  /// application would show. Entries sorted by ref, as the sender's outref
  /// column produces them, make each lookup a short search forward from the
  /// previous one; any other order (a foreign peer's) gives the same
  /// result, only slower. `entries` is a range of records with `ref`,
  /// `removed` and `distance` (net's UpdateEntry).
  template <typename Entries, typename OnCleaned>
  void ApplyUpdate(SiteId source, const Entries& entries,
                   OnCleaned&& on_cleaned);

  /// ApplyUpdate's one-removal case: removes a source, and the whole entry
  /// when the source list empties. Returns true if the entry was removed.
  bool RemoveInrefSource(ObjectId local_ref, SiteId source);

  void RemoveInref(ObjectId local_ref);

  [[nodiscard]] const InrefMap& inrefs() const { return inrefs_; }
  [[nodiscard]] InrefMap& inrefs() { return inrefs_; }

  // --- outrefs --------------------------------------------------------

  [[nodiscard]] OutrefEntry* FindOutref(ObjectId remote_ref);
  [[nodiscard]] const OutrefEntry* FindOutref(ObjectId remote_ref) const;

  /// Creates the outref if absent and returns (entry, created).
  std::pair<OutrefEntry*, bool> EnsureOutref(ObjectId remote_ref);

  void RemoveOutref(ObjectId remote_ref) { RemoveOutrefs({remote_ref}); }

  /// Removes every ref of `sorted_refs` (ascending, distinct) in one
  /// compaction pass. Each must exist and be unpinned.
  void RemoveOutrefs(const std::vector<ObjectId>& sorted_refs);

  [[nodiscard]] const OutrefMap& outrefs() const { return outrefs_; }
  [[nodiscard]] OutrefMap& outrefs() { return outrefs_; }

  [[nodiscard]] const CollectorConfig& config() const { return config_; }

  // --- Flat-table occupancy / reuse observability ----------------------
  //
  // The maps never shrink their backing vectors, so sustained churn should
  // be absorbed by spare capacity rather than fresh allocations. These feed
  // SiteStats, the metrics CSV, and inspect so a scale run can watch the
  // tables stop allocating (reuses climbing, grows flat).

  /// Inserts (across both tables) absorbed by spare vector capacity.
  [[nodiscard]] std::uint64_t slot_reuses() const { return slot_reuses_; }
  /// Inserts (across both tables) that reallocated a backing vector.
  [[nodiscard]] std::uint64_t slot_grows() const { return slot_grows_; }
  /// Allocated entry slots across both tables (vector capacities).
  [[nodiscard]] std::size_t slot_capacity() const {
    return inrefs_.capacity() + outrefs_.capacity();
  }
  /// Live entries over allocated slots; 1.0 for empty tables.
  [[nodiscard]] double occupancy() const {
    const std::size_t capacity = slot_capacity();
    if (capacity == 0) return 1.0;
    return static_cast<double>(inrefs_.size() + outrefs_.size()) /
           static_cast<double>(capacity);
  }

 private:
  /// Erases the inrefs in `refs` (each present, any order, repeats allowed)
  /// in one compaction pass, and clears `refs`.
  void EraseInrefs(std::vector<ObjectId>& refs);

  SiteId site_;
  const CollectorConfig& config_;
  InrefMap inrefs_;
  OutrefMap outrefs_;
  std::uint64_t slot_reuses_ = 0;
  std::uint64_t slot_grows_ = 0;
};

template <typename Entries, typename OnCleaned>
void RefTables::ApplyUpdate(SiteId source, const Entries& entries,
                            OnCleaned&& on_cleaned) {
  for (const auto& entry : entries) {  // every check before any change
    DGC_CHECK_MSG(entry.ref.site == site_,
                  "update names a remote object: " << entry.ref);
  }
  std::vector<ObjectId> emptied;  // erased together, by EraseInrefs
  auto at = inrefs_.begin();
  for (const auto& entry : entries) {
    at = inrefs_.lower_bound_from(at, entry.ref);
    if (at == inrefs_.end() || at->first != entry.ref) continue;  // no inref
    InrefEntry& inref = at->second;
    if (entry.removed) {
      inref.sources.erase(source);
      if (inref.sources.empty()) emptied.push_back(entry.ref);
      continue;
    }
    // An emptied inref lists no source, so later entries leave it alone,
    // as they would find nothing once it is erased.
    const auto listed = inref.sources.find(source);
    if (listed == inref.sources.end()) continue;
    const bool was_clean = inref.clean(config_.suspicion_threshold);
    listed->second = entry.distance;
    if (was_clean || !inref.clean(config_.suspicion_threshold)) continue;
    EraseInrefs(emptied);
    on_cleaned(entry.ref);
    at = inrefs_.begin();  // the erasures (or the callback) moved entries
  }
  EraseInrefs(emptied);
}

}  // namespace dgc
