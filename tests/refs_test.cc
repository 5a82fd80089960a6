// Unit tests for the inref/outref tables, and a differential of
// RefTables::ApplyUpdate against the entry-by-entry loop it replaced: on
// random tables, and through a Site while back traces are under way.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/system.h"
#include "net/messages.h"
#include "refs/tables.h"
#include "workload/builders.h"

namespace dgc {
namespace {

class RefTablesTest : public ::testing::Test {
 protected:
  CollectorConfig config_;
  RefTables tables_{/*site=*/1, config_};
  const ObjectId local_{1, 10};
  const ObjectId remote_{2, 20};
};

TEST_F(RefTablesTest, EnsureInrefCreatesWithConfiguredThreshold) {
  InrefEntry& entry = tables_.EnsureInref(local_);
  EXPECT_EQ(entry.back_threshold, config_.initial_back_threshold());
  EXPECT_TRUE(entry.sources.empty());
  EXPECT_EQ(entry.distance(), kDistanceInfinity);
}

TEST_F(RefTablesTest, InrefMustBeLocal) {
  EXPECT_THROW(tables_.EnsureInref(remote_), InvariantViolation);
}

TEST_F(RefTablesTest, AddSourceTracksDistanceMinimum) {
  tables_.AddInrefSource(local_, 2, 5);
  tables_.AddInrefSource(local_, 3, 2);
  const InrefEntry* entry = tables_.FindInref(local_);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->distance(), 2u);
  tables_.AddInrefSource(local_, 3, 9);  // update overwrites
  EXPECT_EQ(entry->distance(), 5u);
}

TEST_F(RefTablesTest, OwnSiteCannotBeSource) {
  EXPECT_THROW(tables_.AddInrefSource(local_, 1, 1), InvariantViolation);
}

TEST_F(RefTablesTest, RemoveLastSourceRemovesEntry) {
  tables_.AddInrefSource(local_, 2, 1);
  tables_.AddInrefSource(local_, 3, 1);
  EXPECT_FALSE(tables_.RemoveInrefSource(local_, 2));
  EXPECT_NE(tables_.FindInref(local_), nullptr);
  EXPECT_TRUE(tables_.RemoveInrefSource(local_, 3));
  EXPECT_EQ(tables_.FindInref(local_), nullptr);
}

TEST_F(RefTablesTest, RemoveSourceOfMissingInrefIsNoop) {
  EXPECT_FALSE(tables_.RemoveInrefSource(local_, 2));
}

TEST_F(RefTablesTest, InrefCleanlinessFollowsDistanceThreshold) {
  config_.suspicion_threshold = 3;
  InrefEntry& entry = tables_.AddInrefSource(local_, 2, 3);
  EXPECT_TRUE(entry.clean(3));
  entry.sources[2] = 4;
  EXPECT_FALSE(entry.clean(3));
  entry.clean_override = true;  // transfer barrier
  EXPECT_TRUE(entry.clean(3));
  entry.garbage_flagged = true;  // condemned wins over everything
  EXPECT_FALSE(entry.clean(3));
}

TEST_F(RefTablesTest, OutrefCleanlinessSources) {
  auto [entry, created] = tables_.EnsureOutref(remote_);
  EXPECT_TRUE(created);
  EXPECT_FALSE(entry->clean());
  entry->traced_clean = true;
  EXPECT_TRUE(entry->clean());
  entry->traced_clean = false;
  entry->clean_override = true;
  EXPECT_TRUE(entry->clean());
  entry->clean_override = false;
  entry->pin_count = 1;
  EXPECT_TRUE(entry->clean());
}

TEST_F(RefTablesTest, OutrefMustBeRemote) {
  EXPECT_THROW(tables_.EnsureOutref(local_), InvariantViolation);
}

TEST_F(RefTablesTest, EnsureOutrefIdempotent) {
  auto [first, created1] = tables_.EnsureOutref(remote_);
  auto [second, created2] = tables_.EnsureOutref(remote_);
  EXPECT_TRUE(created1);
  EXPECT_FALSE(created2);
  EXPECT_EQ(first, second);
}

TEST_F(RefTablesTest, RemovingPinnedOutrefThrows) {
  auto [entry, created] = tables_.EnsureOutref(remote_);
  (void)created;
  entry->pin_count = 1;
  EXPECT_THROW(tables_.RemoveOutref(remote_), InvariantViolation);
  entry->pin_count = 0;
  EXPECT_NO_THROW(tables_.RemoveOutref(remote_));
  EXPECT_EQ(tables_.FindOutref(remote_), nullptr);
}

TEST_F(RefTablesTest, BulkTrimKeepsRemoveOutrefChecks) {
  const ObjectId a{2, 1}, b{2, 2}, c{3, 1};
  for (const ObjectId ref : {a, b, c}) tables_.EnsureOutref(ref);
  tables_.FindOutref(b)->pin_count = 1;
  EXPECT_THROW(tables_.RemoveOutrefs({a, b}), InvariantViolation);  // pinned
  EXPECT_THROW(tables_.RemoveOutrefs({a, ObjectId{2, 9}}),
               InvariantViolation);  // absent
  // Both checks fire before anything moves.
  EXPECT_EQ(tables_.outrefs().size(), 3u);
  tables_.RemoveOutrefs({a, c});
  EXPECT_EQ(tables_.FindOutref(a), nullptr);
  EXPECT_NE(tables_.FindOutref(b), nullptr);
  EXPECT_EQ(tables_.FindOutref(c), nullptr);
}

TEST(RefTablesLayoutTest, EntriesWithTheirKeysFitTheirByteBudget) {
  // An update's compaction pass moves every inref entry after the first one
  // it erases, so the entry's size is part of an update's cost.
  if constexpr (sizeof(void*) != 8) {
    GTEST_SKIP() << "sizes pinned for 64-bit builds";
  }
  EXPECT_EQ(sizeof(RefTables::InrefMap::value_type), 48u);
  EXPECT_EQ(sizeof(RefTables::OutrefMap::value_type), 40u);
}

TEST_F(RefTablesTest, TablesIterateInDeterministicOrder) {
  tables_.EnsureOutref(ObjectId{3, 5});
  tables_.EnsureOutref(ObjectId{2, 9});
  tables_.EnsureOutref(ObjectId{2, 1});
  ObjectId previous{};
  bool first = true;
  for (const auto& [ref, entry] : tables_.outrefs()) {
    (void)entry;
    if (!first) {
      EXPECT_LT(previous, ref);
    }
    previous = ref;
    first = false;
  }
}

// --- ApplyUpdate against the entry-by-entry loop it replaced --------------

using CleanedFn = std::function<void(ObjectId)>;

// Site::HandleUpdate as it was before ApplyUpdate, with the old
// RemoveInrefSource inlined: one binary search per entry and one erase (a
// shift of the table's tail) per inref a removal empties.
void ApplyEntryByEntry(RefTables& tables, SiteId from,
                       const std::vector<UpdateEntry>& entries,
                       const CleanedFn& on_cleaned) {
  const Distance threshold = tables.config().suspicion_threshold;
  for (const UpdateEntry& entry : entries) {
    InrefEntry* inref = tables.FindInref(entry.ref);
    if (inref == nullptr) continue;
    if (entry.removed) {
      inref->sources.erase(from);
      if (inref->sources.empty()) tables.inrefs().erase(entry.ref);
      continue;
    }
    const auto source = inref->sources.find(from);
    if (source == inref->sources.end()) continue;
    const bool was_clean = inref->clean(threshold);
    source->second = entry.distance;
    if (!was_clean && inref->clean(threshold)) on_cleaned(entry.ref);
  }
}

// Describes the first difference between two inref tables (keys, sources,
// distances, flags, visit marks, thresholds); empty when equal.
std::string FirstDifference(const RefTables::InrefMap& got,
                            const RefTables::InrefMap& want) {
  std::ostringstream out;
  auto a = got.begin();
  auto b = want.begin();
  for (; a != got.end() && b != want.end(); ++a, ++b) {
    if (a->first != b->first) {
      out << "inref " << a->first << " where " << b->first << " was expected";
      return out.str();
    }
    const InrefEntry& x = a->second;
    const InrefEntry& y = b->second;
    const bool same =
        std::equal(x.sources.begin(), x.sources.end(), y.sources.begin(),
                   y.sources.end()) &&
        x.garbage_flagged == y.garbage_flagged &&
        x.clean_override == y.clean_override &&
        x.back_threshold == y.back_threshold;
    if (!same) {
      out << "inref " << a->first << " differs";
      return out.str();
    }
  }
  if (a != got.end()) out << "extra inref " << a->first;
  if (b != want.end()) out << "missing inref " << b->first;
  return out.str();
}

constexpr SiteId kOwner = 1;
constexpr SiteId kSources[] = {0, 2, 3, 4, 5};
constexpr Distance kThreshold = 6;

// Up to ~3,000 inrefs with gaps between their keys (so an update can name
// a ref without an inref), 1-3 sources each at distances on both sides of
// the suspicion threshold, some flagged or overridden, a few sourceless.
void FillInrefs(RefTables& tables, Rng& rng) {
  const std::uint64_t count = rng.NextInRange(1, 3'000);
  std::uint64_t index = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    index += rng.NextInRange(1, 3);
    const ObjectId ref{kOwner, index};
    InrefEntry& inref = tables.EnsureInref(ref);
    if (rng.NextBelow(50) == 0) continue;  // sourceless
    const std::uint64_t sources = rng.NextInRange(1, 3);
    for (std::uint64_t k = 0; k < sources; ++k) {
      const SiteId source = kSources[rng.NextBelow(std::size(kSources))];
      tables.AddInrefSource(ref, source,
                            static_cast<Distance>(rng.NextInRange(1, 12)));
    }
    inref.garbage_flagged = rng.NextBelow(20) == 0;
    inref.clean_override = rng.NextBelow(20) == 0;
  }
}

enum class Order { kAscending, kAscendingRepeats, kShuffled, kShuffledRepeats };

// One source's update of 1-64 entries: refs mostly of inrefs (listing the
// source or not), some without one; removals and distance changes mixed.
std::vector<UpdateEntry> RandomUpdate(const RefTables& tables, Order order,
                                      Rng& rng) {
  std::vector<ObjectId> keys;
  for (const auto& [ref, inref] : tables.inrefs()) keys.push_back(ref);
  const std::uint64_t last = keys.empty() ? 1 : keys.back().index + 2;
  std::vector<UpdateEntry> entries(rng.NextInRange(1, 64));
  for (UpdateEntry& entry : entries) {
    entry.ref = !keys.empty() && rng.NextBelow(4) != 0
                    ? keys[rng.NextBelow(keys.size())]
                    : ObjectId{kOwner, rng.NextBelow(last + 1)};
    entry.removed = rng.NextBelow(3) == 0;
    entry.distance = static_cast<Distance>(rng.NextInRange(1, 12));
  }
  const bool repeats =
      order == Order::kAscendingRepeats || order == Order::kShuffledRepeats;
  if (repeats) {
    const std::size_t copies = rng.NextInRange(1, entries.size());
    for (std::size_t i = 0; i < copies; ++i) {
      UpdateEntry copy = entries[rng.NextBelow(entries.size())];
      copy.removed = rng.NextBelow(2) == 0;
      copy.distance = static_cast<Distance>(rng.NextInRange(1, 12));
      entries.push_back(copy);
    }
  }
  const auto by_ref = [](const UpdateEntry& x, const UpdateEntry& y) {
    return x.ref < y.ref;
  };
  if (order == Order::kAscending || order == Order::kAscendingRepeats) {
    std::stable_sort(entries.begin(), entries.end(), by_ref);
    if (!repeats) {
      entries.erase(std::unique(entries.begin(), entries.end(),
                                [](const UpdateEntry& x, const UpdateEntry& y) {
                                  return x.ref == y.ref;
                                }),
                    entries.end());
    }
  } else {
    for (std::size_t i = entries.size(); i > 1; --i) {
      std::swap(entries[i - 1], entries[rng.NextBelow(i)]);
    }
  }
  return entries;
}

TEST(ApplyUpdateDifferential, MatchesEntryByEntryLoop) {
  CollectorConfig config;
  config.suspicion_threshold = kThreshold;
  std::size_t removals_emptying = 0, cleans = 0, orders_seen = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    RefTables fast(kOwner, config);
    RefTables reference(kOwner, config);
    FillInrefs(fast, rng);
    reference.inrefs() = fast.inrefs();
    for (int message = 0; message < 40; ++message) {
      const auto order = static_cast<Order>(rng.NextBelow(4));
      orders_seen |= std::size_t{1} << static_cast<int>(order);
      const SiteId from = kSources[rng.NextBelow(std::size(kSources))];
      const std::vector<UpdateEntry> entries =
          RandomUpdate(reference, order, rng);

      // The reference's clean calls, each with the table it showed.
      std::vector<std::pair<ObjectId, RefTables::InrefMap>> want;
      const std::size_t size_before = reference.inrefs().size();
      ApplyEntryByEntry(reference, from, entries, [&](ObjectId ref) {
        want.emplace_back(ref, reference.inrefs());
      });
      removals_emptying += size_before - reference.inrefs().size();
      cleans += want.size();

      std::size_t call = 0;
      fast.ApplyUpdate(from, entries, [&](ObjectId ref) {
        ASSERT_LT(call, want.size()) << "extra clean-rule call for " << ref;
        EXPECT_EQ(ref, want[call].first) << "clean-rule call " << call;
        EXPECT_EQ(FirstDifference(fast.inrefs(), want[call].second), "")
            << "table seen by clean-rule call " << call;
        ++call;
      });
      EXPECT_EQ(call, want.size()) << "seed " << seed << " message "
                                   << message;
      ASSERT_EQ(FirstDifference(fast.inrefs(), reference.inrefs()), "")
          << "seed " << seed << " message " << message << " order "
          << static_cast<int>(order);
    }
  }
  // The cases the comparison must have covered.
  EXPECT_EQ(orders_seen, 0b1111u);
  EXPECT_GT(removals_emptying, 100u);
  EXPECT_GT(cleans, 100u);
}

// A world whose site 1 holds inrefs from site 0 (six garbage rings over
// sites 0-2, cross edges between them, three rooted objects) with back
// traces under way, so an update from site 0 can clean inrefs they visit.
class TraceWorld {
 public:
  TraceWorld() : system_(3, Config(), Net()) {
    std::vector<ObjectId> ring_heads;
    for (int ring = 0; ring < 6; ++ring) {
      const auto cycle =
          workload::BuildCycle(system_, {.sites = 3, .objects_per_site = 1});
      ring_heads.push_back(cycle.head());
      rings_.push_back(cycle.objects[1]);
    }
    for (std::size_t ring = 0; ring + 1 < ring_heads.size(); ring += 2) {
      system_.Wire(ring_heads[ring], 1, rings_[ring + 1]);
    }
    for (int i = 0; i < 3; ++i) {
      workload::TetherToRoot(system_, system_.NewObject(1, 0), 0);
    }
    system_.RunRounds(12);  // the rings' distances ripen past the threshold
    Site& site0 = system_.site(0);
    site0.back_tracer().set_outcome_observer(
        [this](const TraceOutcome& outcome) {
          outcomes_.push_back({outcome.result, outcome.completed_at});
        });
    for (const ObjectId ring : rings_) site0.back_tracer().StartTrace(ring);
    // Run until a trace has visited an inref at site 1 from site 0.
    while (!VisitedAtSite1() && system_.scheduler().RunOne()) {
    }
  }

  System& system() { return system_; }
  Site& site1() { return system_.site(1); }
  /// Some trace has marked an inref at site 1. An outref mark is not
  /// enough: an update only cleans inrefs.
  [[nodiscard]] bool VisitedAtSite1() {
    for (const auto& [ref, inref] : site1().tables().inrefs()) {
      (void)inref;
      if (site1().back_tracer().VisitCount(IorefKind::kInref, ref) != 0) {
        return true;
      }
    }
    return false;
  }
  [[nodiscard]] const std::vector<std::pair<BackResult, SimTime>>& outcomes()
      const {
    return outcomes_;
  }

 private:
  static CollectorConfig Config() {
    CollectorConfig config;
    config.suspicion_threshold = 2;
    config.estimated_cycle_length = 3;
    config.enable_back_tracing = false;  // only the traces started above
    config.report_timeout = 100'000;
    return config;
  }
  static NetworkConfig Net() {
    NetworkConfig net;
    net.latency = 50;
    return net;
  }

  System system_;
  std::vector<ObjectId> rings_;
  std::vector<std::pair<BackResult, SimTime>> outcomes_;
};

// Through Site::HandleMessage in one world and through the entry-by-entry
// loop in its twin, the same update from site 0 must leave the same tables,
// force the same frames Live, and let the traces end the same way.
TEST(ApplyUpdateDifferential, SiteMatchesEntryByEntryLoopMidTrace) {
  std::uint64_t clean_rule_hits = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    TraceWorld fast;
    TraceWorld reference;
    ASSERT_TRUE(fast.VisitedAtSite1());
    Rng rng(seed);
    std::vector<UpdateEntry> entries;
    for (const auto& [ref, inref] : fast.site1().tables().inrefs()) {
      const int copies = rng.NextBelow(4) == 0 ? 2 : 1;
      for (int i = 0; i < copies; ++i) {
        entries.push_back(UpdateEntry{
            ref, rng.NextBelow(3) == 0,
            static_cast<Distance>(rng.NextInRange(1, 5))});
      }
    }
    entries.push_back(UpdateEntry{ObjectId{1, 999}, false, 1});  // no inref
    if (seed % 2 == 0) {
      for (std::size_t i = entries.size(); i > 1; --i) {
        std::swap(entries[i - 1], entries[rng.NextBelow(i)]);
      }
    }

    fast.site1().HandleMessage(Envelope{0, 1, UpdateMsg{entries}});
    Site& site = reference.site1();
    ApplyEntryByEntry(site.tables(), 0, entries, [&](ObjectId ref) {
      site.back_tracer().OnIorefCleaned(IorefKind::kInref, ref);
    });

    EXPECT_EQ(FirstDifference(fast.site1().tables().inrefs(),
                              site.tables().inrefs()),
              "")
        << "seed " << seed;
    const BackTracerStats& got = fast.site1().back_tracer().stats();
    const BackTracerStats& want = site.back_tracer().stats();
    EXPECT_EQ(got.clean_rule_hits, want.clean_rule_hits) << "seed " << seed;
    EXPECT_EQ(fast.system().network().stats().inter_site_sent,
              reference.system().network().stats().inter_site_sent)
        << "seed " << seed;
    clean_rule_hits += want.clean_rule_hits;

    fast.system().SettleNetwork();
    reference.system().SettleNetwork();
    EXPECT_EQ(fast.outcomes(), reference.outcomes()) << "seed " << seed;
    EXPECT_EQ(fast.outcomes().size(), 6u) << "seed " << seed;
    for (SiteId s = 0; s < 3; ++s) {
      EXPECT_EQ(FirstDifference(fast.system().site(s).tables().inrefs(),
                                reference.system().site(s).tables().inrefs()),
                "")
          << "seed " << seed << " site " << s;
    }
  }
  EXPECT_GT(clean_rule_hits, 0u) << "no update cleaned a visited inref";
}

TEST_F(RefTablesTest, ApplyUpdateCleansAfterErasingEmptiedInrefs) {
  // Removing b's only source, then a distance drop that cleans c: the clean
  // rule must not see b, which the entry-by-entry loop had already erased.
  config_.suspicion_threshold = 2;
  const ObjectId a{1, 1}, b{1, 2}, c{1, 3};
  tables_.AddInrefSource(a, 2, 5);
  tables_.AddInrefSource(b, 2, 5);
  tables_.AddInrefSource(c, 2, 5);
  tables_.AddInrefSource(c, 3, 9);
  std::vector<ObjectId> seen;
  tables_.ApplyUpdate(
      /*source=*/2,
      std::vector<UpdateEntry>{{b, true}, {c, false, 1}, {a, true}},
      [&](ObjectId ref) {
        EXPECT_EQ(ref, c);
        for (const auto& [key, inref] : tables_.inrefs()) seen.push_back(key);
      });
  EXPECT_EQ(seen, (std::vector<ObjectId>{a, c}));
  ASSERT_EQ(tables_.inrefs().size(), 1u);
  const InrefEntry* inref = tables_.FindInref(c);
  ASSERT_NE(inref, nullptr);
  EXPECT_EQ(inref->sources.at(2), 1u);
  EXPECT_EQ(inref->sources.at(3), 9u);
}

TEST_F(RefTablesTest, ApplyUpdateChecksEveryRefBeforeAnyChange) {
  tables_.AddInrefSource(local_, 2, 1);
  EXPECT_THROW(tables_.ApplyUpdate(2,
                                   std::vector<UpdateEntry>{{local_, true},
                                                            {remote_, true}},
                                   [](ObjectId) {}),
               InvariantViolation);
  EXPECT_NE(tables_.FindInref(local_), nullptr);
}

}  // namespace
}  // namespace dgc
