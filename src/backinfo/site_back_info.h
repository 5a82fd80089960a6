// Materialized back information of one site (Section 5).
//
// After a local trace, a site retains the outsets of its suspected inrefs and
// the inverse view, the insets of its suspected outrefs. Back traces consult
// insets (local steps); the transfer barrier consults outsets (to clean the
// outrefs reachable from a cleaned inref). During a non-atomic local trace
// the site holds two copies — the old one serves back traces while the new
// one is being prepared (Section 6.2).
//
// Both views are FlatMaps (sorted vectors) rather than std::maps: back info
// is built in bulk once per full trace (the outsets in inref order, then the
// insets by one inversion) and afterwards only read by binary search, which
// is the access pattern flat storage wins at — one contiguous allocation per
// view and cache-line-friendly lookups. Iteration is in key order, so
// message batching and test dumps stay deterministic.
#pragma once

#include <cstddef>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"

namespace dgc {

/// Object -> sorted set of object ids.
using OutsetMap = FlatMap<ObjectId, std::vector<ObjectId>>;

struct SiteBackInfo {
  /// Outset per suspected inref: local object -> sorted suspected outrefs.
  OutsetMap inref_outsets;

  /// Inset per suspected outref: remote ref -> sorted local inref objects.
  /// Always the exact inverse of inref_outsets.
  OutsetMap outref_insets;

  /// Rebuilds outref_insets from inref_outsets.
  void RecomputeInsets();

  /// Σ of stored set elements — the O(ni + no)-style space figure reported
  /// by bench_outset_sharing (counts both views).
  [[nodiscard]] std::size_t stored_elements() const;

  void clear() {
    inref_outsets.clear();
    outref_insets.clear();
  }

  friend bool operator==(const SiteBackInfo&, const SiteBackInfo&) = default;
};

}  // namespace dgc
