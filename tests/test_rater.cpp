#include "crowd/rater.h"

#include <gtest/gtest.h>

#include "util/stats.h"

namespace sensei::crowd {
namespace {

TEST(Rater, StarsUnitConversionRoundTrips) {
  EXPECT_DOUBLE_EQ(RaterPool::stars_to_unit(1), 0.0);
  EXPECT_DOUBLE_EQ(RaterPool::stars_to_unit(5), 1.0);
  EXPECT_DOUBLE_EQ(RaterPool::stars_to_unit(3), 0.5);
  EXPECT_EQ(RaterPool::unit_to_stars(0.0), 1);
  EXPECT_EQ(RaterPool::unit_to_stars(1.0), 5);
  EXPECT_EQ(RaterPool::unit_to_stars(0.5), 3);
  EXPECT_EQ(RaterPool::unit_to_stars(-2.0), 1);  // clamped
  EXPECT_EQ(RaterPool::unit_to_stars(7.0), 5);
}

TEST(Rater, RecruitAssignsUniqueIds) {
  RaterPool pool;
  Rater a = pool.recruit(), b = pool.recruit();
  EXPECT_NE(a.id, b.id);
}

TEST(Rater, SpammerFractionRoughlyRespected) {
  RaterConfig cfg;
  cfg.spammer_fraction = 0.2;
  RaterPool pool(cfg, 77);
  int spammers = 0;
  for (int i = 0; i < 5000; ++i) spammers += pool.recruit().spammer ? 1 : 0;
  EXPECT_NEAR(spammers / 5000.0, 0.2, 0.02);
}

TEST(Rater, HonestRatingsTrackTrueQoE) {
  RaterConfig cfg;
  cfg.spammer_fraction = 0.0;
  cfg.partial_watch_fraction = 0.0;
  RaterPool pool(cfg, 7);
  double sum_good = 0.0, sum_bad = 0.0;
  const int n = 400;
  for (int i = 0; i < n; ++i) {
    Rater r = pool.recruit();
    sum_good += pool.rate(r, 0.9).stars;
    sum_bad += pool.rate(r, 0.2).stars;
  }
  EXPECT_GT(sum_good / n, 4.0);
  EXPECT_LT(sum_bad / n, 2.5);
}

TEST(Rater, MosConvergesToTruth) {
  RaterConfig cfg;
  cfg.spammer_fraction = 0.0;
  cfg.partial_watch_fraction = 0.0;
  RaterPool pool(cfg, 8);
  util::MergeableAccumulator acc;
  for (int i = 0; i < 3000; ++i) {
    Rater r = pool.recruit();
    acc.add(RaterPool::stars_to_unit(pool.rate(r, 0.6).stars));
  }
  EXPECT_NEAR(acc.mean(), 0.6, 0.03);
}

TEST(Rater, SpammersOftenSkipVideos) {
  RaterConfig cfg;
  cfg.spammer_fraction = 1.0;
  RaterPool pool(cfg, 9);
  int skipped = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    Rater r = pool.recruit();
    if (!pool.rate(r, 0.8).watched_full) ++skipped;
  }
  EXPECT_GT(skipped, n / 3);
}

TEST(Rater, HonestRatersMostlyWatchFully) {
  RaterConfig cfg;
  cfg.spammer_fraction = 0.0;
  cfg.partial_watch_fraction = 0.05;
  RaterPool pool(cfg, 10);
  int skipped = 0;
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    Rater r = pool.recruit();
    if (!pool.rate(r, 0.8).watched_full) ++skipped;
  }
  EXPECT_NEAR(skipped / static_cast<double>(n), 0.05, 0.02);
}

TEST(Rater, BiasIsPersistentPerRater) {
  RaterConfig cfg;
  cfg.spammer_fraction = 0.0;
  cfg.partial_watch_fraction = 0.0;
  cfg.bias_stddev = 0.3;  // exaggerate for the test
  cfg.noise_stddev = 0.01;
  RaterPool pool(cfg, 11);
  // A harsh rater stays harsh across many ratings.
  Rater r = pool.recruit();
  util::MergeableAccumulator acc;
  for (int i = 0; i < 200; ++i) acc.add(pool.rate(r, 0.5).stars);
  // The mean deviates from the unbiased expectation (3) according to bias.
  EXPECT_NEAR(acc.mean(), 3.0 + 4.0 * r.bias, 0.35);
}

}  // namespace
}  // namespace sensei::crowd
