// FlatMap: a sorted-vector map with the std::map surface the hot paths use.
//
// The ref tables, the site's root/ack books, the back information's two
// views, and the network's per-channel state are all keyed lookups that are
// read and iterated far more often than they are structurally mutated.
// std::map pays a node allocation per entry and a pointer chase per
// comparison; at 10^6 objects those dominate the per-mutation profile. A
// sorted std::vector keeps the same ordered, deterministic iteration (so
// verdict and sweep order are bit-identical to the std::map code) while
// lookups become cache-friendly binary searches and iteration a linear scan.
//
// Deliberate differences from std::map, which every call site must respect:
//
//   * insert/erase invalidate ALL iterators, references, and entry pointers
//     into the map (vector reallocation / element shifting). Callers may
//     hold a pointer only across non-structural mutations;
//   * value_type is std::pair<Key, T> (non-const Key): structured bindings
//     and `it->first` read identically, but writing the key of a live entry
//     is undefined — nothing in this codebase does;
//   * erase(key) and erase(iterator) are O(n) shifts, insert is O(n). A
//     single op per mutation is fine; a batch is not: k one-at-a-time
//     erasures cost k shifts of the tail. Remove a batch with one
//     erase_sorted compaction pass (RefTables::RemoveOutrefs for a trace's
//     trims, RefTables::ApplyUpdate for the inrefs an update message
//     empties), and look up an ascending batch with lower_bound_from,
//     which searches forward from the previous answer.
//
// The map never shrinks its vector, so steady-state churn (insert/erase
// cycles under workload) is served from already-allocated slots;
// RefTables counts which of its inserts reallocated.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "common/check.h"

namespace dgc {

template <typename Key, typename T, typename Compare = std::less<Key>>
class FlatMap {
 public:
  using value_type = std::pair<Key, T>;
  using storage_type = std::vector<value_type>;
  using iterator = typename storage_type::iterator;
  using const_iterator = typename storage_type::const_iterator;

  FlatMap() = default;

  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }
  [[nodiscard]] const_iterator cbegin() const { return entries_.cbegin(); }
  [[nodiscard]] const_iterator cend() const { return entries_.cend(); }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return entries_.capacity(); }
  void reserve(std::size_t n) { entries_.reserve(n); }
  void clear() { entries_.clear(); }

  [[nodiscard]] iterator lower_bound(const Key& key) {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            KeyLess{Compare{}});
  }
  [[nodiscard]] const_iterator lower_bound(const Key& key) const {
    return std::lower_bound(entries_.begin(), entries_.end(), key,
                            KeyLess{Compare{}});
  }

  /// lower_bound(key) for callers that walk ascending keys: a galloping
  /// search forward from `hint` (a previous answer) in O(log distance)
  /// probes. When a key before `hint` is not below `key` (the walk went
  /// backwards) it searches the whole map, so any key order is answered.
  [[nodiscard]] iterator lower_bound_from(iterator hint, const Key& key) {
    const KeyLess less{Compare{}};
    if (hint != entries_.begin() && !less(*std::prev(hint), key)) {
      return lower_bound(key);
    }
    // Every entry before `first` is below `key`; probes double their stride.
    iterator first = hint;
    iterator last = entries_.end();
    for (std::ptrdiff_t step = 1; last - first >= step; step *= 2) {
      const iterator probe = first + (step - 1);
      if (!less(*probe, key)) {
        last = probe;
        break;
      }
      first = probe + 1;
    }
    return std::lower_bound(first, last, key, less);
  }

  [[nodiscard]] iterator find(const Key& key) {
    const iterator it = lower_bound(key);
    return it != entries_.end() && KeysEqual(it->first, key) ? it
                                                             : entries_.end();
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    const const_iterator it = lower_bound(key);
    return it != entries_.end() && KeysEqual(it->first, key) ? it
                                                             : entries_.end();
  }

  [[nodiscard]] bool contains(const Key& key) const {
    return find(key) != entries_.end();
  }
  [[nodiscard]] std::size_t count(const Key& key) const {
    return contains(key) ? 1 : 0;
  }

  [[nodiscard]] T& at(const Key& key) {
    const iterator it = find(key);
    DGC_CHECK_MSG(it != entries_.end(), "FlatMap::at: key not found");
    return it->second;
  }
  [[nodiscard]] const T& at(const Key& key) const {
    const const_iterator it = find(key);
    DGC_CHECK_MSG(it != entries_.end(), "FlatMap::at: key not found");
    return it->second;
  }

  /// Inserts default-constructed-from-args if absent; like std::map, the
  /// mapped value is untouched when the key already exists.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    iterator it = lower_bound(key);
    if (it != entries_.end() && KeysEqual(it->first, key)) return {it, false};
    it = entries_.insert(
        it, value_type(std::piecewise_construct, std::forward_as_tuple(key),
                       std::forward_as_tuple(std::forward<Args>(args)...)));
    return {it, true};
  }

  /// std::map::emplace for the (key, value) shape used in this codebase.
  template <typename K, typename V>
  std::pair<iterator, bool> emplace(K&& key, V&& value) {
    const Key k(std::forward<K>(key));
    iterator it = lower_bound(k);
    if (it != entries_.end() && KeysEqual(it->first, k)) return {it, false};
    it = entries_.insert(it, value_type(k, T(std::forward<V>(value))));
    return {it, true};
  }

  T& operator[](const Key& key) { return try_emplace(key).first->second; }

  std::size_t erase(const Key& key) {
    const iterator it = find(key);
    if (it == entries_.end()) return 0;
    entries_.erase(it);
    return 1;
  }
  iterator erase(const_iterator it) { return entries_.erase(it); }

  friend bool operator==(const FlatMap&, const FlatMap&) = default;

  /// Removes every entry matching the predicate in one linear pass (the
  /// iterator-erase loop would be quadratic). Returns the count removed.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    return std::erase_if(
        entries_, [&pred](const value_type& entry) { return pred(entry); });
  }

  /// Removes the entries keyed by `sorted_keys` (ascending, distinct) in one
  /// compaction pass that starts at the first of them: the entries before
  /// it are not even read. A key without an entry is skipped. Returns the
  /// count removed.
  std::size_t erase_sorted(const std::vector<Key>& sorted_keys) {
    if (sorted_keys.empty()) return 0;
    const Compare compare{};
    auto next = sorted_keys.begin();
    iterator write = lower_bound(*next);
    for (iterator read = write; read != entries_.end(); ++read) {
      while (next != sorted_keys.end() && compare(*next, read->first)) ++next;
      if (next != sorted_keys.end() && !compare(read->first, *next)) {
        ++next;  // removed: the next kept entry overwrites it
        continue;
      }
      if (write != read) *write = std::move(*read);
      ++write;
    }
    const auto removed = static_cast<std::size_t>(entries_.end() - write);
    entries_.erase(write, entries_.end());
    return removed;
  }

 private:
  struct KeyLess {
    Compare compare;
    bool operator()(const value_type& entry, const Key& key) const {
      return compare(entry.first, key);
    }
  };
  [[nodiscard]] static bool KeysEqual(const Key& a, const Key& b) {
    const Compare compare{};
    return !compare(a, b) && !compare(b, a);
  }

  storage_type entries_;
};

}  // namespace dgc
