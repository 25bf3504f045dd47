#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>

#include "util/stats.h"

namespace sensei::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, FromStringIsDeterministicAndSalted) {
  Rng a = Rng::from_string("Soccer1"), b = Rng::from_string("Soccer1");
  EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c = Rng::from_string("Soccer1", 1);
  Rng d = Rng::from_string("Soccer2");
  Rng e = Rng::from_string("Soccer1");
  uint64_t base = e.next_u64();
  EXPECT_NE(c.next_u64(), base);
  EXPECT_NE(d.next_u64(), base);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(9);
  MergeableAccumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.uniform());
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(10);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(2, 5));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_TRUE(seen.count(2));
  EXPECT_TRUE(seen.count(5));
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(11);
  EXPECT_EQ(rng.uniform_int(3, 3), 3);
  EXPECT_EQ(rng.uniform_int(5, 2), 5);  // inverted range returns lo
}

TEST(Rng, NormalMoments) {
  Rng rng(12);
  MergeableAccumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.normal());
  EXPECT_NEAR(acc.mean(), 0.0, 0.02);
  EXPECT_NEAR(acc.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(13);
  MergeableAccumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 3.0, 0.1);
}

TEST(Rng, ChanceProbability) {
  Rng rng(14);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(15);
  MergeableAccumulator acc;
  for (int i = 0; i < 30000; ++i) acc.add(rng.exponential(5.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.15);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(16);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[0] / 40000.0, 0.25, 0.02);
  EXPECT_NEAR(counts[2] / 40000.0, 0.75, 0.02);
}

TEST(Rng, WeightedIndexDegenerateInputs) {
  Rng rng(17);
  std::vector<double> zero = {0.0, 0.0};
  EXPECT_EQ(rng.weighted_index(zero), 1u);
  std::vector<double> empty;
  EXPECT_EQ(rng.weighted_index(empty), 0u);
  std::vector<double> negative = {-2.0, 1.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted_index(negative), 1u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(18);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(19);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // astronomically unlikely to be identity
}

}  // namespace
}  // namespace sensei::util
