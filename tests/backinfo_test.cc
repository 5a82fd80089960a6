// Unit + property tests for back-information computation (Section 5):
// canonical outset storage with memoized unions, the Tarjan-based bottom-up
// computer, and its equivalence to the independent-tracing oracle (§5.1) —
// including the Figure 4 graph where a naive trace gets it wrong.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "backinfo/outset_store.h"
#include "backinfo/site_back_info.h"
#include "backinfo/suspect_trace.h"
#include "common/rng.h"
#include "store/heap.h"

namespace dgc {
namespace {

// --- OutsetStore ------------------------------------------------------------

TEST(OutsetStoreTest, EmptySetIsIdZero) {
  OutsetStore store;
  EXPECT_EQ(OutsetStore::kEmpty, 0u);
  EXPECT_TRUE(store.Get(OutsetStore::kEmpty).empty());
}

TEST(OutsetStoreTest, SingletonInterned) {
  OutsetStore store;
  const ObjectId ref{2, 7};
  const auto a = store.Singleton(ref);
  const auto b = store.Singleton(ref);
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.Get(a), std::vector<ObjectId>{ref});
}

TEST(OutsetStoreTest, UnionIsSetUnion) {
  OutsetStore store;
  const ObjectId r1{2, 1}, r2{2, 2}, r3{3, 1};
  auto s12 = store.Union(store.Singleton(r1), store.Singleton(r2));
  auto s123 = store.Add(s12, r3);
  EXPECT_EQ(store.Get(s123), (std::vector<ObjectId>{r1, r2, r3}));
  // Adding an existing member changes nothing.
  EXPECT_EQ(store.Add(s123, r2), s123);
}

TEST(OutsetStoreTest, UnionWithEmptyAndSelfIsTrivial) {
  OutsetStore store;
  const auto s = store.Singleton(ObjectId{2, 1});
  EXPECT_EQ(store.Union(s, OutsetStore::kEmpty), s);
  EXPECT_EQ(store.Union(OutsetStore::kEmpty, s), s);
  EXPECT_EQ(store.Union(s, s), s);
  EXPECT_EQ(store.stats().unions_trivial, 3u);
}

TEST(OutsetStoreTest, UnionsAreMemoized) {
  OutsetStore store;
  const auto a = store.Singleton(ObjectId{2, 1});
  const auto b = store.Singleton(ObjectId{2, 2});
  const auto first = store.Union(a, b);
  const auto computed_before = store.stats().unions_computed;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(store.Union(a, b), first);
    EXPECT_EQ(store.Union(b, a), first);  // order-normalized
  }
  EXPECT_EQ(store.stats().unions_computed, computed_before);
  EXPECT_GE(store.stats().unions_memo_hits, 20u);
}

TEST(OutsetStoreTest, EqualContentShareStorage) {
  OutsetStore store;
  const ObjectId r1{2, 1}, r2{2, 2}, r3{2, 3};
  // {r1,r2,r3} built two different ways must intern to the same id.
  const auto left =
      store.Union(store.Union(store.Singleton(r1), store.Singleton(r2)),
                  store.Singleton(r3));
  const auto right =
      store.Union(store.Singleton(r1),
                  store.Union(store.Singleton(r2), store.Singleton(r3)));
  EXPECT_EQ(left, right);
}

// --- Suspect tracing fixtures ------------------------------------------------

/// Env with explicit clean sets, for driving the tracers directly.
struct TestEnv {
  Heap* heap = nullptr;
  std::set<ObjectId> clean_objects;
  std::set<ObjectId> clean_outrefs;
  std::set<ObjectId> suspect_marked;

  bool ObjectIsCleanMarked(ObjectId id) const {
    return clean_objects.contains(id);
  }
  bool OutrefIsClean(ObjectId ref) const { return clean_outrefs.contains(ref); }
  void OnSuspectMarked(ObjectId id) { suspect_marked.insert(id); }
};

class SuspectTraceTest : public ::testing::Test {
 protected:
  Heap heap_{0};
  TestEnv env_;
  OutsetStore store_;

  ObjectId Obj(std::size_t slots) { return heap_.Allocate(slots); }
  void Edge(ObjectId from, std::size_t slot, ObjectId to) {
    heap_.SetSlot(from, slot, to);
  }

  std::vector<ObjectId> BottomUp(ObjectId root) {
    BottomUpOutsetComputer<TestEnv> computer(heap_, store_, env_);
    return store_.Get(computer.TraceFrom(root));
  }
};

TEST_F(SuspectTraceTest, ChainPropagatesOutset) {
  // a -> b -> c -> remote r
  const ObjectId a = Obj(1), b = Obj(1), c = Obj(1);
  const ObjectId r{1, 99};
  Edge(a, 0, b);
  Edge(b, 0, c);
  heap_.SetSlot(c, 0, r);
  EXPECT_EQ(BottomUp(a), std::vector<ObjectId>{r});
  EXPECT_EQ(env_.suspect_marked.size(), 3u);
}

TEST_F(SuspectTraceTest, CleanObjectsAreBlack) {
  const ObjectId a = Obj(1), b = Obj(1);
  const ObjectId r{1, 99};
  Edge(a, 0, b);
  heap_.SetSlot(b, 0, r);
  env_.clean_objects.insert(b);  // traced clean: never entered
  EXPECT_TRUE(BottomUp(a).empty());
  EXPECT_FALSE(env_.suspect_marked.contains(b));
}

TEST_F(SuspectTraceTest, CleanOutrefsExcluded) {
  const ObjectId a = Obj(2);
  const ObjectId r1{1, 1}, r2{1, 2};
  heap_.SetSlot(a, 0, r1);
  heap_.SetSlot(a, 1, r2);
  env_.clean_outrefs.insert(r1);
  EXPECT_EQ(BottomUp(a), std::vector<ObjectId>{r2});
}

TEST_F(SuspectTraceTest, Figure4BackEdgeGivesSccSharedOutset) {
  // Figure 4: a->z, b->z, z->x, x->y, y->z (SCC {z,x,y}), z->c, y->d remote.
  const ObjectId a = Obj(1), b = Obj(1), z = Obj(2), x = Obj(1), y = Obj(2);
  const ObjectId c{1, 50}, d{2, 60};
  Edge(a, 0, z);
  Edge(b, 0, z);
  Edge(z, 0, x);
  heap_.SetSlot(z, 1, c);
  Edge(x, 0, y);
  heap_.SetSlot(y, 0, d);
  Edge(y, 1, z);  // back edge closing the SCC

  // Trace a first (the order that breaks the naive first-cut algorithm),
  // then b: both must see the full outset {c, d}.
  BottomUpOutsetComputer<TestEnv> computer(heap_, store_, env_);
  const auto outset_a = store_.Get(computer.TraceFrom(a));
  const auto outset_b = store_.Get(computer.TraceFrom(b));
  EXPECT_EQ(outset_a, (std::vector<ObjectId>{c, d}));
  EXPECT_EQ(outset_b, (std::vector<ObjectId>{c, d}));
  // Each object traced exactly once (§5.2's whole point).
  EXPECT_EQ(computer.stats().objects_traced, 5u);
  EXPECT_EQ(computer.stats().object_visits, 5u);
}

TEST_F(SuspectTraceTest, Figure4WithoutBackEdgeStillComplete) {
  // Without y->z there is no SCC, but sharing of the {x,y} tail must still
  // give b the outref c discovered via z.
  const ObjectId a = Obj(1), b = Obj(1), z = Obj(2), x = Obj(1), y = Obj(1);
  const ObjectId c{1, 50}, d{2, 60};
  Edge(a, 0, z);
  Edge(b, 0, z);
  Edge(z, 0, x);
  heap_.SetSlot(z, 1, c);
  Edge(x, 0, y);
  heap_.SetSlot(y, 0, d);

  BottomUpOutsetComputer<TestEnv> computer(heap_, store_, env_);
  EXPECT_EQ(store_.Get(computer.TraceFrom(a)), (std::vector<ObjectId>{c, d}));
  EXPECT_EQ(store_.Get(computer.TraceFrom(b)), (std::vector<ObjectId>{c, d}));
  EXPECT_EQ(computer.stats().objects_traced, 5u);
}

TEST_F(SuspectTraceTest, KeptScratchReadsEarlierTracesAsUnvisited) {
  // Figure 4 with the SCC closed, traced by successive computers in one
  // scratch, as the collector runs one per trace: each must enter every
  // object afresh and see the graph as it is at its own trace.
  const ObjectId a = Obj(1), b = Obj(1), z = Obj(2), x = Obj(1), y = Obj(2);
  const ObjectId c{1, 50}, d{2, 60};
  Edge(a, 0, z);
  Edge(b, 0, z);
  Edge(z, 0, x);
  heap_.SetSlot(z, 1, c);
  Edge(x, 0, y);
  heap_.SetSlot(y, 0, d);
  Edge(y, 1, z);
  BottomUpScratch scratch;
  {
    BottomUpOutsetComputer<TestEnv> first(heap_, store_, env_, scratch);
    EXPECT_EQ(store_.Get(first.TraceFrom(a)), (std::vector<ObjectId>{c, d}));
  }
  // y no longer reaches d. An entry left by the first trace would still
  // hand b the outset {c, d}.
  heap_.SetSlot(y, 0, kInvalidObject);
  {
    BottomUpOutsetComputer<TestEnv> second(heap_, store_, env_, scratch);
    EXPECT_EQ(store_.Get(second.TraceFrom(b)), std::vector<ObjectId>{c});
    EXPECT_EQ(second.stats().objects_traced, 4u);  // b, z, x, y
  }
  // Marks that would overflow during the next trace start over from a
  // cleared array.
  scratch.last_mark = UINT32_MAX - 2;
  BottomUpOutsetComputer<TestEnv> third(heap_, store_, env_, scratch);
  EXPECT_EQ(store_.Get(third.TraceFrom(a)), std::vector<ObjectId>{c});
  EXPECT_EQ(third.stats().objects_traced, 4u);  // a, z, x, y
  EXPECT_LT(scratch.last_mark, 5u);
}

TEST_F(SuspectTraceTest, NestedSccsResolveToLeaders) {
  // Two SCCs in sequence: {a,b} -> {c,d} -> remote r. All four share r.
  const ObjectId a = Obj(2), b = Obj(1), c = Obj(2), d = Obj(1);
  const ObjectId r{1, 9};
  Edge(a, 0, b);
  Edge(b, 0, a);
  Edge(a, 1, c);
  Edge(c, 0, d);
  Edge(d, 0, c);
  heap_.SetSlot(c, 1, r);
  BottomUpOutsetComputer<TestEnv> computer(heap_, store_, env_);
  EXPECT_EQ(store_.Get(computer.TraceFrom(a)), std::vector<ObjectId>{r});
  EXPECT_EQ(store_.Get(computer.TraceFrom(b)), std::vector<ObjectId>{r});
  EXPECT_EQ(store_.Get(computer.TraceFrom(c)), std::vector<ObjectId>{r});
}

TEST_F(SuspectTraceTest, DeepChainDoesNotOverflowStack) {
  // 200k-object chain: the iterative DFS must handle it.
  const std::size_t n = 200'000;
  std::vector<ObjectId> chain;
  chain.reserve(n);
  for (std::size_t i = 0; i < n; ++i) chain.push_back(Obj(1));
  for (std::size_t i = 0; i + 1 < n; ++i) Edge(chain[i], 0, chain[i + 1]);
  const ObjectId r{1, 5};
  heap_.SetSlot(chain.back(), 0, r);
  EXPECT_EQ(BottomUp(chain.front()), std::vector<ObjectId>{r});
}

TEST_F(SuspectTraceTest, IndependentTracerMatchesOnFigure4) {
  const ObjectId a = Obj(1), b = Obj(1), z = Obj(2), x = Obj(1), y = Obj(2);
  const ObjectId c{1, 50}, d{2, 60};
  Edge(a, 0, z);
  Edge(b, 0, z);
  Edge(z, 0, x);
  heap_.SetSlot(z, 1, c);
  Edge(x, 0, y);
  heap_.SetSlot(y, 0, d);
  Edge(y, 1, z);

  TestEnv env2 = env_;
  IndependentOutsetTracer<TestEnv> independent(heap_, env2);
  EXPECT_EQ(independent.TraceFrom(a), (std::vector<ObjectId>{c, d}));
  EXPECT_EQ(independent.TraceFrom(b), (std::vector<ObjectId>{c, d}));
  // The §5.1 tracer revisits shared objects: more visits than objects.
  EXPECT_GT(independent.stats().object_visits,
            independent.stats().objects_traced);
}

// Property: on random graphs, bottom-up (§5.2) == independent tracing (§5.1).
class OutsetEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OutsetEquivalence, BottomUpMatchesIndependentOracle) {
  Rng rng(GetParam());
  Heap heap(0);
  const std::size_t objects = 40 + rng.NextBelow(60);
  const std::size_t slots = 3;
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < objects; ++i) ids.push_back(heap.Allocate(slots));

  TestEnv env;
  env.heap = &heap;
  // Random local edges, remote refs, and clean markings.
  for (const ObjectId id : ids) {
    for (std::size_t s = 0; s < slots; ++s) {
      const double roll = rng.NextDouble();
      if (roll < 0.5) {
        heap.SetSlot(id, s, ids[rng.NextBelow(ids.size())]);
      } else if (roll < 0.7) {
        const ObjectId remote{static_cast<SiteId>(1 + rng.NextBelow(3)),
                              rng.NextBelow(10)};
        heap.SetSlot(id, s, remote);
        if (rng.NextBool(0.3)) env.clean_outrefs.insert(remote);
      }
    }
  }
  for (const ObjectId id : ids) {
    if (rng.NextBool(0.15)) env.clean_objects.insert(id);
  }
  std::vector<ObjectId> roots;
  for (const ObjectId id : ids) {
    if (rng.NextBool(0.2) && !env.clean_objects.contains(id)) {
      roots.push_back(id);
    }
  }

  TestEnv env_a = env, env_b = env;
  OutsetStore store;
  BottomUpOutsetComputer<TestEnv> bottom_up(heap, store, env_a);
  IndependentOutsetTracer<TestEnv> independent(heap, env_b);
  for (const ObjectId root : roots) {
    EXPECT_EQ(store.Get(bottom_up.TraceFrom(root)),
              independent.TraceFrom(root))
        << "divergence from root " << root << " with seed " << GetParam();
  }
  EXPECT_EQ(env_a.suspect_marked, env_b.suspect_marked);
  // §5.2 guarantee: each object entered at most once.
  EXPECT_EQ(bottom_up.stats().object_visits,
            bottom_up.stats().objects_traced);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, OutsetEquivalence,
                         ::testing::Range<std::uint64_t>(1, 33));

// --- SiteBackInfo ------------------------------------------------------------

TEST(SiteBackInfoTest, InsetsAreExactInverse) {
  SiteBackInfo info;
  const ObjectId i1{0, 1}, i2{0, 2};
  const ObjectId o1{1, 1}, o2{1, 2}, o3{2, 1};
  info.inref_outsets[i1] = {o1, o2};
  info.inref_outsets[i2] = {o2, o3};
  info.RecomputeInsets();
  EXPECT_EQ(info.outref_insets.at(o1), std::vector<ObjectId>{i1});
  EXPECT_EQ(info.outref_insets.at(o2), (std::vector<ObjectId>{i1, i2}));
  EXPECT_EQ(info.outref_insets.at(o3), std::vector<ObjectId>{i2});
  EXPECT_EQ(info.stored_elements(), 8u);

  // Seeded random outset maps: hundreds of outrefs on three sites, first
  // seen far out of order by the walk over the inrefs, checked against a
  // node-based inversion.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    SiteBackInfo random;
    std::map<ObjectId, std::set<ObjectId>> inverse;
    for (std::uint64_t i = 1; i <= 300; ++i) {
      std::set<ObjectId> outset;
      const std::uint64_t members = 1 + rng.NextBelow(8);
      for (std::uint64_t k = 0; k < members; ++k) {
        outset.insert(ObjectId{static_cast<SiteId>(1 + rng.NextBelow(3)),
                               1 + rng.NextBelow(200)});
      }
      const ObjectId inref{0, i};
      for (const ObjectId outref : outset) inverse[outref].insert(inref);
      random.inref_outsets[inref].assign(outset.begin(), outset.end());
    }
    random.RecomputeInsets();
    ASSERT_GE(inverse.size(), 300u) << "seed " << seed;
    ASSERT_EQ(random.outref_insets.size(), inverse.size()) << "seed " << seed;
    auto inset = random.outref_insets.begin();
    for (const auto& [outref, expected] : inverse) {
      EXPECT_EQ(inset->first, outref) << "seed " << seed;
      EXPECT_EQ(inset->second,
                std::vector<ObjectId>(expected.begin(), expected.end()))
          << "seed " << seed << " outref " << outref;
      ++inset;
    }
  }
}

}  // namespace
}  // namespace dgc
