// Unit tests for the common substrate: ids, distance arithmetic, RNG, checks,
// and the sorted-vector map's batch operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/distance.h"
#include "common/flat_map.h"
#include "common/ids.h"
#include "common/rng.h"

namespace dgc {
namespace {

TEST(ObjectIdTest, DefaultIsInvalid) {
  ObjectId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, kInvalidObject);
}

TEST(ObjectIdTest, EqualityAndOrdering) {
  const ObjectId a{1, 5};
  const ObjectId b{1, 6};
  const ObjectId c{2, 1};
  EXPECT_EQ(a, (ObjectId{1, 5}));
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(ObjectIdTest, HashDistinguishesSiteAndIndex) {
  std::unordered_set<ObjectId> set;
  for (SiteId s = 0; s < 8; ++s) {
    for (std::uint64_t i = 0; i < 64; ++i) set.insert(ObjectId{s, i});
  }
  EXPECT_EQ(set.size(), 8u * 64u);
}

TEST(ObjectIdTest, Streaming) {
  std::ostringstream os;
  os << ObjectId{3, 42};
  EXPECT_EQ(os.str(), "obj(s3:42)");
}

TEST(TraceIdTest, UniquePerInitiatorAndSeq) {
  std::unordered_set<TraceId> set;
  for (SiteId s = 0; s < 4; ++s) {
    for (std::uint32_t q = 0; q < 16; ++q) set.insert(TraceId{s, q});
  }
  EXPECT_EQ(set.size(), 4u * 16u);
  EXPECT_FALSE(TraceId{}.valid());
  EXPECT_TRUE((TraceId{0, 0}).valid());
}

TEST(DistanceTest, NextDistanceSaturates) {
  EXPECT_EQ(NextDistance(0), 1u);
  EXPECT_EQ(NextDistance(41), 42u);
  EXPECT_EQ(NextDistance(kDistanceInfinity), kDistanceInfinity);
  EXPECT_EQ(NextDistance(kDistanceInfinity - 1), kDistanceInfinity);
}

TEST(DistanceArithmeticTest, AddDistanceSaturatesInsteadOfWrapping) {
  EXPECT_EQ(AddDistance(2, 3), 5u);
  EXPECT_EQ(AddDistance(0, 0), 0u);
  EXPECT_EQ(AddDistance(kDistanceInfinity, 1), kDistanceInfinity);
  EXPECT_EQ(AddDistance(kDistanceInfinity, kDistanceInfinity),
            kDistanceInfinity);
  EXPECT_EQ(AddDistance(kDistanceInfinity - 1, 1), kDistanceInfinity);
  EXPECT_EQ(AddDistance(kDistanceInfinity - 1, 2), kDistanceInfinity);
  EXPECT_EQ(AddDistance(1, kDistanceInfinity - 1), kDistanceInfinity);
  EXPECT_EQ(AddDistance(kDistanceInfinity - 2, 1), kDistanceInfinity - 1);
  // Saturation is sticky: once infinite, increments never wrap back down.
  Distance d = kDistanceInfinity - 3;
  for (int i = 0; i < 8; ++i) d = NextDistance(d);
  EXPECT_EQ(d, kDistanceInfinity);
}

TEST(DistanceArithmeticTest, NextDistanceMatchesAddByOne) {
  EXPECT_EQ(NextDistance(0), 1u);
  EXPECT_EQ(NextDistance(7), 8u);
  for (const Distance d : {Distance{0}, Distance{7}, kDistanceInfinity - 2,
                           kDistanceInfinity - 1, kDistanceInfinity}) {
    EXPECT_EQ(NextDistance(d), AddDistance(d, 1)) << d;
  }
}

TEST(CheckTest, PassingCheckIsSilent) {
  EXPECT_NO_THROW(DGC_CHECK(1 + 1 == 2));
}

TEST(CheckTest, FailingCheckThrowsWithLocation) {
  try {
    DGC_CHECK_MSG(false, "ioref " << 7);
    FAIL() << "expected InvariantViolation";
  } catch (const InvariantViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("common_test.cc"), std::string::npos);
    EXPECT_NE(what.find("ioref 7"), std::string::npos);
  }
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    const auto v = rng.NextInRange(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBool(0.0));
    EXPECT_TRUE(rng.NextBool(1.0));
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(21);
  Rng child = a.Fork();
  // The fork must not replay the parent's stream.
  Rng b(21);
  b.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.Next() == b.Next());
  EXPECT_LT(same, 4);
}

// Keys 0, 3, 6, ... so that every other key in between has no entry.
FlatMap<int, int> EveryThird(int count) {
  FlatMap<int, int> map;
  for (int i = 0; i < count; ++i) map[3 * i] = i;
  return map;
}

TEST(FlatMapTest, LowerBoundFromMatchesLowerBoundInAnyKeyOrder) {
  FlatMap<int, int> map = EveryThird(200);
  Rng rng(5);
  for (int walk = 0; walk < 200; ++walk) {
    auto hint = map.begin();
    for (int step = 0; step < 40; ++step) {
      // Mostly ascending (with repeats), sometimes backwards or past the end.
      const int key = rng.NextBelow(4) == 0
                          ? static_cast<int>(rng.NextBelow(620))
                          : (hint == map.end() ? 600 : hint->first) +
                                static_cast<int>(rng.NextBelow(30));
      const auto got = map.lower_bound_from(hint, key);
      ASSERT_EQ(got, map.lower_bound(key)) << "key " << key;
      hint = got;
    }
  }
  FlatMap<int, int> empty;
  EXPECT_EQ(empty.lower_bound_from(empty.begin(), 1), empty.end());
}

TEST(FlatMapTest, EraseSortedRemovesPresentKeysAndSkipsAbsentOnes) {
  FlatMap<int, int> map = EveryThird(100);
  // 1 and 299 have no entry; 0 and 297 are the first and last entries.
  EXPECT_EQ(map.erase_sorted({0, 1, 30, 31, 33, 297, 299}), 4u);
  EXPECT_EQ(map.size(), 96u);
  for (const int gone : {0, 30, 33, 297}) EXPECT_FALSE(map.contains(gone));
  for (const int kept : {3, 27, 36, 294}) {
    ASSERT_TRUE(map.contains(kept));
    EXPECT_EQ(map.at(kept), kept / 3);
  }
  EXPECT_TRUE(std::is_sorted(
      map.begin(), map.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  EXPECT_EQ(map.erase_sorted({}), 0u);
  EXPECT_EQ(map.erase_sorted({1000}), 0u);
  EXPECT_EQ(map.size(), 96u);
}

TEST(FlatMapTest, BehavesLikeASortedMap) {
  // The back information's shape: object -> sorted set of object ids.
  FlatMap<ObjectId, std::vector<ObjectId>> map;
  const ObjectId a{1, 5}, b{1, 2}, c{2, 1};
  const std::vector<ObjectId> outset_a = {ObjectId{9, 1}};
  const std::vector<ObjectId> outset_b = {ObjectId{9, 2}};
  const std::vector<ObjectId> outset_c = {ObjectId{9, 3}};
  map[a] = outset_a;
  map[b] = outset_b;
  EXPECT_TRUE(map.emplace(c, outset_c).second);
  EXPECT_FALSE(map.emplace(c, outset_a).second);  // an existing key stays
  EXPECT_EQ(map.size(), 3u);
  EXPECT_TRUE(map.contains(a));
  EXPECT_EQ(map.at(b), outset_b);
  EXPECT_EQ(map.at(c), outset_c);
  // Iteration is key-ordered regardless of insertion order.
  std::vector<ObjectId> keys;
  for (const auto& [key, value] : map) {
    (void)value;
    keys.push_back(key);
  }
  EXPECT_EQ(keys, (std::vector<ObjectId>{b, a, c}));

  // Equal maps hold the same keys with the same values, however built.
  FlatMap<ObjectId, std::vector<ObjectId>> copy;
  copy.emplace(c, outset_c);
  copy[b] = outset_b;
  copy[a] = outset_a;
  EXPECT_TRUE(copy == map);
  copy[a].push_back(ObjectId{9, 4});
  EXPECT_FALSE(copy == map);
  copy[a] = outset_a;
  copy[ObjectId{3, 1}];
  EXPECT_FALSE(copy == map);

  EXPECT_EQ(map.erase(b), 1u);
  EXPECT_EQ(map.erase(b), 0u);
  EXPECT_EQ(map.find(b), map.end());
  EXPECT_EQ(map.size(), 2u);
}

}  // namespace
}  // namespace dgc
