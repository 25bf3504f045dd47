#include "util/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace sensei::util {
namespace {

TEST(Stats, MeanAndVariance) {
  std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(v), 3.0);
  EXPECT_DOUBLE_EQ(variance(v), 2.0);
  EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(sum(v), 15.0);
}

TEST(Stats, EmptyInputsAreSafe) {
  std::vector<double> empty;
  EXPECT_DOUBLE_EQ(mean(empty), 0.0);
  EXPECT_DOUBLE_EQ(variance(empty), 0.0);
  EXPECT_DOUBLE_EQ(min_of(empty), 0.0);
  EXPECT_DOUBLE_EQ(max_of(empty), 0.0);
  EXPECT_DOUBLE_EQ(percentile(empty, 50), 0.0);
  EXPECT_DOUBLE_EQ(pearson(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(spearman(empty, empty), 0.0);
}

TEST(Stats, MinMax) {
  std::vector<double> v = {3, -1, 7, 2};
  EXPECT_DOUBLE_EQ(min_of(v), -1.0);
  EXPECT_DOUBLE_EQ(max_of(v), 7.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v = {0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 20.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 12.5), 5.0);  // between first two samples
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  std::vector<double> yn = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, yn), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerateVarianceIsZero) {
  std::vector<double> x = {1, 1, 1};
  std::vector<double> y = {2, 5, 9};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Stats, RanksWithTies) {
  std::vector<double> v = {10, 20, 20, 30};
  auto r = ranks(v);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, SpearmanMonotonicNonlinear) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {1, 8, 27, 64, 125};  // monotone but nonlinear
  EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Stats, DiscordantFraction) {
  std::vector<double> x = {1, 2, 3};
  std::vector<double> same = {10, 20, 30};
  EXPECT_DOUBLE_EQ(discordant_fraction(x, same), 0.0);
  std::vector<double> reversed = {30, 20, 10};
  EXPECT_DOUBLE_EQ(discordant_fraction(x, reversed), 1.0);
}

TEST(Stats, DiscordantFractionSkipsTies) {
  std::vector<double> x = {1, 1, 2};
  std::vector<double> y = {5, 9, 9};
  // Pairs: (0,1) tie in x, (1,2) tie in y, (0,2) concordant -> 0 discordant.
  EXPECT_DOUBLE_EQ(discordant_fraction(x, y), 0.0);
}

TEST(Stats, MeanRelativeError) {
  std::vector<double> pred = {1.1, 1.8};
  std::vector<double> truth = {1.0, 2.0};
  EXPECT_NEAR(mean_relative_error(pred, truth), (0.1 + 0.1) / 2.0, 1e-12);
}

TEST(Stats, MeanRelativeErrorSkipsZeroTruth) {
  std::vector<double> pred = {1.0, 5.0};
  std::vector<double> truth = {0.0, 4.0};
  EXPECT_NEAR(mean_relative_error(pred, truth), 0.25, 1e-12);
}

TEST(Stats, Rmse) {
  std::vector<double> pred = {1, 2};
  std::vector<double> truth = {2, 4};
  EXPECT_NEAR(rmse(pred, truth), std::sqrt((1.0 + 4.0) / 2.0), 1e-12);
}

TEST(Stats, EmpiricalCdfIsMonotone) {
  auto cdf = empirical_cdf({5, 1, 3, 3});
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf.front().first, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().first, 5.0);
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
}

TEST(Stats, Normalize01) {
  auto n = normalize01({2, 4, 6});
  EXPECT_DOUBLE_EQ(n[0], 0.0);
  EXPECT_DOUBLE_EQ(n[1], 0.5);
  EXPECT_DOUBLE_EQ(n[2], 1.0);
  auto c = normalize01({3, 3});
  EXPECT_DOUBLE_EQ(c[0], 0.5);
  EXPECT_DOUBLE_EQ(c[1], 0.5);
}

TEST(Stats, Clamp) {
  EXPECT_DOUBLE_EQ(clamp(5, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(clamp(-5, 0, 1), 0.0);
  EXPECT_DOUBLE_EQ(clamp(0.5, 0, 1), 0.5);
}

TEST(Stats, AccumulatorMatchesBatch) {
  std::vector<double> v = {1.5, 2.5, -3.0, 4.0, 0.0};
  MergeableAccumulator acc;
  for (double x : v) acc.add(x);
  EXPECT_EQ(acc.count(), v.size());
  EXPECT_NEAR(acc.mean(), mean(v), 1e-12);
  EXPECT_NEAR(acc.variance(), variance(v), 1e-12);
}

// The fleet aggregation primitives: a mergeable Welford accumulator and a
// bounded-memory quantile sketch (util/stats.h).

TEST(MergeableAccumulator, MatchesPlainWelfordBitForBit) {
  util::Rng rng(7);
  // The textbook Welford recurrence, as the reference.
  size_t n = 0;
  double mean = 0.0;
  double m2 = 0.0;
  MergeableAccumulator merged;
  for (int i = 0; i < 5000; ++i) {
    double x = rng.normal(3.0, 2.0);
    ++n;
    const double delta = x - mean;
    mean += delta / static_cast<double>(n);
    m2 += delta * (x - mean);
    merged.add(x);
    // Identical update sequence -> identical running state, not merely close.
    ASSERT_EQ(mean, merged.mean());
    ASSERT_EQ(m2 / static_cast<double>(n), merged.variance());
  }
  EXPECT_EQ(n, merged.count());
}

TEST(MergeableAccumulator, TracksExactExtremes) {
  MergeableAccumulator acc;
  EXPECT_DOUBLE_EQ(acc.min(), 0.0);  // empty
  EXPECT_DOUBLE_EQ(acc.max(), 0.0);
  for (double x : {3.0, -1.5, 7.25, 2.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.min(), -1.5);
  EXPECT_DOUBLE_EQ(acc.max(), 7.25);
}

TEST(MergeableAccumulator, MergeEquivalentToSingleStream) {
  util::Rng rng(11);
  std::vector<double> data;
  for (int i = 0; i < 4096; ++i) data.push_back(rng.uniform() * 100.0 - 20.0);

  MergeableAccumulator single;
  for (double x : data) single.add(x);

  // Any contiguous sharding, folded in shard order, must agree with the
  // single stream to floating-point reassociation tolerance — and the
  // extremes exactly.
  for (size_t shards : {1u, 2u, 4u, 7u, 16u}) {
    std::vector<MergeableAccumulator> parts(shards);
    for (size_t i = 0; i < data.size(); ++i) {
      parts[i * shards / data.size()].add(data[i]);
    }
    MergeableAccumulator total;
    for (const auto& p : parts) total.merge(p);
    EXPECT_EQ(total.count(), data.size());
    EXPECT_NEAR(total.mean(), single.mean(), 1e-9 * std::abs(single.mean()));
    EXPECT_NEAR(total.variance(), single.variance(), 1e-9 * single.variance());
    EXPECT_DOUBLE_EQ(total.min(), min_of(data));
    EXPECT_DOUBLE_EQ(total.max(), max_of(data));
  }
}

TEST(MergeableAccumulator, FixedMergeOrderIsDeterministic) {
  // The fleet's bit-identity contract: the same per-part accumulators folded
  // in the same order give the same doubles, however the parts were computed.
  util::Rng rng(13);
  std::vector<MergeableAccumulator> parts(8);
  for (int i = 0; i < 800; ++i) parts[i % 8].add(rng.normal(0.0, 1.0));
  MergeableAccumulator a, b;
  for (const auto& p : parts) a.merge(p);
  for (const auto& p : parts) b.merge(p);
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

// Empirical CDF position of `x` in sorted `data` (rank / n).
double rank_of(const std::vector<double>& sorted_data, double x) {
  auto it = std::lower_bound(sorted_data.begin(), sorted_data.end(), x);
  return static_cast<double>(it - sorted_data.begin()) /
         static_cast<double>(sorted_data.size());
}

TEST(QuantileSketch, RankErrorWithinBound) {
  util::Rng rng(17);
  std::vector<double> data;
  QuantileSketch sketch;
  for (int i = 0; i < 20000; ++i) {
    // A lumpy mixture, so the test exercises uneven densities.
    double x = rng.chance(0.3) ? rng.normal(50.0, 1.0) : rng.uniform() * 100.0;
    data.push_back(x);
    sketch.add(x);
  }
  EXPECT_EQ(sketch.count(), data.size());
  std::sort(data.begin(), data.end());
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), data.front());
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), data.back());
  const double bound = 2.0 / static_cast<double>(QuantileSketch::kCompressed) + 1e-3;
  for (double q : {0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99}) {
    double est = sketch.quantile(q);
    EXPECT_NEAR(rank_of(data, est), q, bound) << "q=" << q;
  }
}

TEST(QuantileSketch, MergedShardsStayWithinBound) {
  util::Rng rng(19);
  std::vector<double> data;
  std::vector<QuantileSketch> shards(6);
  for (int i = 0; i < 18000; ++i) {
    double x = rng.exponential(0.1);
    data.push_back(x);
    shards[static_cast<size_t>(i) % shards.size()].add(x);
  }
  QuantileSketch total;
  for (const auto& s : shards) total.merge(s);
  EXPECT_EQ(total.count(), data.size());
  std::sort(data.begin(), data.end());
  EXPECT_DOUBLE_EQ(total.min(), data.front());
  EXPECT_DOUBLE_EQ(total.max(), data.back());
  // Merging re-compresses, so allow one extra compression's worth of rank
  // slack over the single-stream bound.
  const double bound = 3.0 / static_cast<double>(QuantileSketch::kCompressed) + 1e-3;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    double est = total.quantile(q);
    EXPECT_NEAR(rank_of(data, est), q, bound) << "q=" << q;
  }
}

TEST(QuantileSketch, FixedMergeOrderIsDeterministic) {
  util::Rng rng(23);
  std::vector<QuantileSketch> parts(5);
  for (int i = 0; i < 3000; ++i) parts[static_cast<size_t>(i) % 5].add(rng.uniform());
  QuantileSketch a, b;
  for (const auto& p : parts) a.merge(p);
  for (const auto& p : parts) b.merge(p);
  for (double q : {0.1, 0.5, 0.9}) EXPECT_EQ(a.quantile(q), b.quantile(q));
}

// Property sweep: spearman of any vector with itself is 1, with its reverse
// is -1 (no ties).
class StatsSeedSweep : public ::testing::TestWithParam<int> {};

TEST_P(StatsSeedSweep, SpearmanSelfAndReverse) {
  util::Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<double> v;
  for (int i = 0; i < 50; ++i) v.push_back(rng.uniform());
  EXPECT_NEAR(spearman(v, v), 1.0, 1e-9);
  std::vector<double> neg;
  for (double x : v) neg.push_back(-x);
  EXPECT_NEAR(spearman(v, neg), -1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsSeedSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace sensei::util
