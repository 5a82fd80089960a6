// Named counter records.
//
// Every in-process counter record (SiteStats, BackTracerStats, NetworkStats,
// ...) names its members once, in a `Counters` function beside its
// declaration that pairs each member with its name (argument-dependent
// lookup finds it), followed by a guard:
//
//   auto Counters(Is<SiteStats> auto& s) {
//     return std::tuple{Counter{"local_traces", s.local_traces},
//                       Counter{"updates_sent", s.updates_sent}, ...};
//   }
//   static_assert(ListsEveryMember<SiteStats>());
//
// The guard checks that the listed members' sizes add up to the record's
// size, so a member missing from its list does not compile. Everything that
// sums or prints a record walks the list: Accumulate (System's totals) and
// ForEachCounter (the metrics CSV and inspect). Adding a counter is the
// member plus its list entry, nothing else. Counters stay plain members,
// incremented where they are; names are read only where a record is printed.
// Ratios are on no list: they are computed where printed.
#pragma once

#include <concepts>
#include <cstddef>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

namespace dgc {

/// Matches T and const T, so one list serves readers (a const record) and
/// writers (a mutable one).
template <class M, class T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

/// One list entry: a record member and its name.
template <class T>
struct Counter {
  const char* name;
  T& value;
};
template <class T>
Counter(const char*, T&) -> Counter<T>;

template <class R>
concept CounterRecord = requires(R& record) { Counters(record); };

namespace detail {
template <class List>
struct ListedBytes;
template <class... T>
struct ListedBytes<std::tuple<Counter<T>...>> {
  static constexpr std::size_t value = (sizeof(T) + ... + 0);
};
}  // namespace detail

/// True when R's list covers every byte of R except `unlisted` (members a
/// record deliberately keeps off its list, like NetworkStats::per_kind).
template <CounterRecord R>
constexpr bool ListsEveryMember(std::size_t unlisted = 0) {
  return detail::ListedBytes<decltype(Counters(std::declval<R&>()))>::value +
             unlisted ==
         sizeof(R);
}

/// Calls visit(name, value) for every counter of `record`, in list order. A
/// listed member that is itself a record is walked in turn, its counters
/// named "<member>.<counter>".
template <CounterRecord R, class Visit>
void ForEachCounter(R& record, const Visit& visit,
                    const std::string& prefix = {}) {
  const auto one = [&](auto counter) {
    if constexpr (CounterRecord<decltype(counter.value)>) {
      ForEachCounter(counter.value, visit, prefix + counter.name + ".");
    } else {
      visit(prefix + counter.name, counter.value);
    }
  };
  std::apply([&](auto... counter) { (one(counter), ...); }, Counters(record));
}

/// Adds every counter of `part` into `total`.
template <CounterRecord R>
void Accumulate(R& total, const R& part) {
  const auto into = Counters(total);
  const auto from = Counters(part);
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    ((std::get<I>(into).value += std::get<I>(from).value), ...);
  }(std::make_index_sequence<std::tuple_size_v<decltype(into)>>{});
}

}  // namespace dgc
