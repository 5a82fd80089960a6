#include "backinfo/outset_store.h"

#include <algorithm>

namespace dgc {

void OutsetStore::Reserve(std::size_t expected_suspects) {
  if (expected_suspects == 0) return;
  sets_.reserve(sets_.size() + expected_suspects);
  by_id_.reserve(expected_suspects);
  singletons_.reserve(expected_suspects);
  // Each suspect contributes at most a handful of distinct pair-unions in
  // practice (shared subgraphs are memoized); 2x is a comfortable ceiling.
  union_memo_.reserve(2 * expected_suspects);
}

OutsetStore::OutsetId OutsetStore::Singleton(ObjectId ref) {
  const auto it = singletons_.find(ref);
  if (it != singletons_.end()) return it->second;
  const OutsetId id = Intern({ref});
  singletons_.emplace(ref, id);
  return id;
}

OutsetStore::OutsetId OutsetStore::Union(OutsetId a, OutsetId b) {
  ++stats_.unions_requested;
  if (a == b || b == kEmpty) {
    ++stats_.unions_trivial;
    return a;
  }
  if (a == kEmpty) {
    ++stats_.unions_trivial;
    return b;
  }
  if (a > b) std::swap(a, b);
  const std::uint64_t key = (static_cast<std::uint64_t>(a) << 32) | b;
  const auto memo = union_memo_.find(key);
  if (memo != union_memo_.end()) {
    ++stats_.unions_memo_hits;
    return memo->second;
  }

  ++stats_.unions_computed;
  const std::vector<ObjectId>& va = Get(a);
  const std::vector<ObjectId>& vb = Get(b);
  std::vector<ObjectId> merged;
  merged.reserve(va.size() + vb.size());
  std::set_union(va.begin(), va.end(), vb.begin(), vb.end(),
                 std::back_inserter(merged));
  const OutsetId id = Intern(std::move(merged));
  union_memo_.emplace(key, id);
  return id;
}

OutsetStore::OutsetId OutsetStore::Intern(std::vector<ObjectId> canonical) {
  DGC_DCHECK(std::is_sorted(canonical.begin(), canonical.end()));
  // Tentatively append the candidate so the id-keyed table can hash and
  // compare it in place; on a duplicate, drop the tentative slot again.
  const OutsetId tentative = static_cast<OutsetId>(sets_.size());
  sets_.push_back(std::move(canonical));
  const auto [it, inserted] = by_id_.insert(tentative);
  if (!inserted) {
    sets_.pop_back();
    ++stats_.interned_existing;
    return *it;
  }
  stats_.stored_elements += sets_[tentative].size();
  return tentative;
}

}  // namespace dgc
