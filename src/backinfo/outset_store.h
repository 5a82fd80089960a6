// Canonical storage for outsets (Section 5.2).
//
// An outset is a set of suspected outrefs (remote references). The paper's
// efficiency argument rests on two observations implemented here:
//   1. suspects with equal outsets share storage — the store interns every
//      set in canonical (sorted) form and hands out small ids;
//   2. unions are memoized — a hash table maps pairs of outset ids to the id
//      of their union, so repeating a union costs O(1).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace dgc {

class OutsetStore {
 public:
  using OutsetId = std::uint32_t;

  static constexpr OutsetId kEmpty = 0;

  OutsetStore() : by_id_(kInitialBuckets, IdHash{&sets_}, IdEq{&sets_}) {
    sets_.emplace_back();  // id 0 = empty set
    by_id_.insert(kEmpty);
  }

  // The intern table's hash/equal functors point into sets_, so the store
  // must stay put.
  OutsetStore(const OutsetStore&) = delete;
  OutsetStore& operator=(const OutsetStore&) = delete;

  /// Makes room for roughly `expected_suspects` more suspected inrefs so a
  /// trace-sized workload does not pay rehash churn. Outset counts and
  /// memoized unions both grow with the suspect count, so one knob sizes
  /// the set vector and all three tables. It only grows them, geometrically:
  /// one that already has the room is left alone.
  void Reserve(std::size_t expected_suspects);

  /// Interns {ref} and returns its id.
  OutsetId Singleton(ObjectId ref);

  /// Returns the id of a ∪ b, memoized.
  OutsetId Union(OutsetId a, OutsetId b);

  /// Returns the id of a ∪ {ref}.
  OutsetId Add(OutsetId a, ObjectId ref) { return Union(a, Singleton(ref)); }

  /// The canonical (sorted, deduplicated) members of an outset.
  [[nodiscard]] const std::vector<ObjectId>& Get(OutsetId id) const {
    DGC_CHECK(id < sets_.size());
    return sets_[id];
  }

  [[nodiscard]] std::size_t distinct_outsets() const { return sets_.size(); }

  struct Stats {
    std::uint64_t unions_requested = 0;
    std::uint64_t unions_memo_hits = 0;   // answered by the pair memo
    std::uint64_t unions_trivial = 0;     // empty/equal operands
    std::uint64_t unions_computed = 0;    // actually merged element-wise
    std::uint64_t interned_existing = 0;  // merge produced an existing set
    std::uint64_t stored_elements = 0;    // Σ |set| over distinct sets
    std::uint64_t union_memo_entries = 0;      // pairs memoized
    double union_memo_load_factor = 0.0;       // entries / buckets
  };
  /// Snapshot of the counters plus the current union-memo load.
  [[nodiscard]] Stats stats() const {
    Stats snapshot = stats_;
    snapshot.union_memo_entries = union_memo_.size();
    snapshot.union_memo_load_factor = union_memo_.load_factor();
    return snapshot;
  }

 private:
  static constexpr std::size_t kInitialBuckets = 16;

  static std::size_t HashContent(const std::vector<ObjectId>& v) noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL + v.size();
    for (const ObjectId& id : v) {
      h = detail::mix64(h ^ std::hash<ObjectId>{}(id));
    }
    return static_cast<std::size_t>(h);
  }

  // The intern table holds outset ids only; hashing and equality dereference
  // the canonical vectors in sets_, so each set's content is stored once.
  struct IdHash {
    const std::vector<std::vector<ObjectId>>* sets;
    std::size_t operator()(OutsetId id) const noexcept {
      return HashContent((*sets)[id]);
    }
  };
  struct IdEq {
    const std::vector<std::vector<ObjectId>>* sets;
    bool operator()(OutsetId a, OutsetId b) const noexcept {
      return (*sets)[a] == (*sets)[b];
    }
  };

  /// Interns a canonical vector, returning its id.
  OutsetId Intern(std::vector<ObjectId> canonical);

  std::vector<std::vector<ObjectId>> sets_;
  std::unordered_set<OutsetId, IdHash, IdEq> by_id_;
  std::unordered_map<ObjectId, OutsetId> singletons_;
  std::unordered_map<std::uint64_t, OutsetId> union_memo_;
  Stats stats_;
};

}  // namespace dgc
