// Materialized back information of one site (Section 5).
//
// After a local trace, a site retains the outsets of its suspected inrefs and
// the inverse view, the insets of its suspected outrefs. Back traces consult
// insets (local steps); the transfer barrier consults outsets (to clean the
// outrefs reachable from a cleaned inref). During a non-atomic local trace
// the site holds two copies — the old one serves back traces while the new
// one is being prepared (Section 6.2).
//
// Storage is a flat sorted vector behind a map-like wrapper (OutsetMap)
// rather than std::map: back info is built in bulk once per full trace (the
// outsets in inref order, then the insets by one inversion) and afterwards
// only read by binary search, which is the access pattern flat storage wins
// at — one contiguous allocation per view and cache-line-friendly lookups.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace dgc {

/// A sorted flat vector of (key, sorted id set) pairs exposing the std::map
/// surface the back-info consumers use. Iteration order is key order, same
/// as the std::map it replaces, so every downstream determinism property
/// (message batching, test dumps) is preserved.
class OutsetMap {
 public:
  using value_type = std::pair<ObjectId, std::vector<ObjectId>>;
  using Storage = std::vector<value_type>;
  using iterator = Storage::iterator;
  using const_iterator = Storage::const_iterator;

  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  void clear() { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

  [[nodiscard]] iterator find(ObjectId key) {
    const iterator it = LowerBound(key);
    return it != entries_.end() && it->first == key ? it : entries_.end();
  }
  [[nodiscard]] const_iterator find(ObjectId key) const {
    const const_iterator it = LowerBound(key);
    return it != entries_.end() && it->first == key ? it : entries_.end();
  }
  [[nodiscard]] bool contains(ObjectId key) const {
    return find(key) != entries_.end();
  }

  [[nodiscard]] const std::vector<ObjectId>& at(ObjectId key) const {
    const const_iterator it = find(key);
    DGC_CHECK_MSG(it != entries_.end(), "no back-info entry for " << key);
    return it->second;
  }

  /// Inserts an empty set at the key's sorted position when absent.
  std::vector<ObjectId>& operator[](ObjectId key) {
    iterator it = LowerBound(key);
    if (it == entries_.end() || it->first != key) {
      it = entries_.insert(it, value_type{key, {}});
    }
    return it->second;
  }

  /// Map-style emplace: no-op (returning false) when the key exists.
  std::pair<iterator, bool> emplace(ObjectId key, std::vector<ObjectId> set) {
    iterator it = LowerBound(key);
    if (it != entries_.end() && it->first == key) return {it, false};
    it = entries_.insert(it, value_type{key, std::move(set)});
    return {it, true};
  }

  std::size_t erase(ObjectId key) {
    const iterator it = find(key);
    if (it == entries_.end()) return 0;
    entries_.erase(it);
    return 1;
  }

  friend bool operator==(const OutsetMap&, const OutsetMap&) = default;

 private:
  [[nodiscard]] iterator LowerBound(ObjectId key) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, ObjectId k) { return e.first < k; });
  }
  [[nodiscard]] const_iterator LowerBound(ObjectId key) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, ObjectId k) { return e.first < k; });
  }

  Storage entries_;
};

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
