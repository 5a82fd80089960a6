// Materialized back information of one site (Section 5).
//
// After a local trace, a site retains the outsets of its suspected inrefs and
// the inverse view, the insets of its suspected outrefs. Back traces consult
// insets (local steps); the transfer barrier consults outsets (to clean the
// outrefs reachable from a cleaned inref).
//
// Each full local trace builds one record and never changes it after: the
// trace result, the collector's reuse cache and the site share it by
// pointer (`std::shared_ptr<const SiteBackInfo>`), so a reused trace hands
// out the record its full trace built. Section 6.2's old and new copies
// during a non-atomic local trace are two pointers: the site's serves back
// traces while the in-flight result holds the new one.
//
// Both views are FlatMaps (sorted vectors) rather than std::maps: back info
// is built in bulk once per full trace, each view in one ascending pass (the
// outsets in inref order, then the insets by one sorted inversion), and
// afterwards only read by binary search, which is the access pattern flat
// storage wins at — one contiguous allocation per view and
// cache-line-friendly lookups. Iteration is in key order, so message
// batching and test dumps stay deterministic.
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

  /// Rebuilds outref_insets from inref_outsets by one sort of (outref,
  /// inref) pairs.
  void RecomputeInsets();

  /// Σ of stored set elements — the O(ni + no)-style space figure reported
  /// by bench_outset_sharing (counts both views).
  [[nodiscard]] std::size_t stored_elements() const;

  friend bool operator==(const SiteBackInfo&, const SiteBackInfo&) = default;
};

}  // namespace dgc
