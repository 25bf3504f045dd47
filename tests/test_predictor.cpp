#include "net/predictor.h"

#include <gtest/gtest.h>

#include <random>
#include <vector>

namespace sensei::net {
namespace {

TEST(HarmonicMean, MatchesClosedForm) {
  HarmonicMeanPredictor p(3);
  p.observe(100);
  p.observe(200);
  // Harmonic mean of {100, 200} = 2 / (1/100 + 1/200) = 133.33.
  EXPECT_NEAR(p.predict_kbps(), 2.0 / (0.01 + 0.005), 1e-9);
}

TEST(HarmonicMean, WindowEvictsOldest) {
  HarmonicMeanPredictor p(2);
  p.observe(100);
  p.observe(100);
  p.observe(400);
  // Window holds {100, 400}: hm = 2/(0.01+0.0025) = 160.
  EXPECT_NEAR(p.predict_kbps(), 160.0, 1e-9);
}

TEST(HarmonicMean, RobustToOutliers) {
  HarmonicMeanPredictor p(5);
  for (int i = 0; i < 4; ++i) p.observe(1000);
  p.observe(100000);  // spike
  EXPECT_LT(p.predict_kbps(), 1500);  // harmonic mean barely moves
}

TEST(HarmonicMean, InitialAndReset) {
  HarmonicMeanPredictor p(3, 777.0);
  EXPECT_DOUBLE_EQ(p.predict_kbps(), 777.0);
  p.observe(100);
  p.reset();
  EXPECT_DOUBLE_EQ(p.predict_kbps(), 777.0);
}

TEST(HarmonicMean, GuardsNonPositiveObservations) {
  HarmonicMeanPredictor p(3);
  p.observe(0.0);
  p.observe(-5.0);
  EXPECT_GT(p.predict_kbps(), 0.0);
}

TEST(Ewma, ConvergesToConstantInput) {
  EwmaPredictor p(0.5);
  for (int i = 0; i < 30; ++i) p.observe(2000);
  EXPECT_NEAR(p.predict_kbps(), 2000, 1e-6);
}

TEST(Ewma, FirstObservationSeeds) {
  EwmaPredictor p(0.3, 1000);
  p.observe(500);
  EXPECT_DOUBLE_EQ(p.predict_kbps(), 500);
}

TEST(Ewma, Reset) {
  EwmaPredictor p(0.3, 1234);
  p.observe(500);
  p.reset();
  EXPECT_DOUBLE_EQ(p.predict_kbps(), 1234);
}

TEST(Scenario, ProbabilitiesSumToOne) {
  ScenarioPredictor p;
  p.observe(1000);
  p.observe(1200);
  p.observe(900);
  auto scenarios = p.scenarios();
  ASSERT_EQ(scenarios.size(), 3u);
  double total = 0.0;
  for (const auto& s : scenarios) total += s.probability;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Scenario, SpreadGrowsWithVariance) {
  ScenarioPredictor stable;
  for (double v : {1000.0, 1010.0, 990.0, 1005.0}) stable.observe(v);
  ScenarioPredictor volatile_p;
  for (double v : {400.0, 2200.0, 600.0, 1800.0}) volatile_p.observe(v);

  auto s1 = stable.scenarios();
  auto s2 = volatile_p.scenarios();
  double spread1 = s1.back().kbps - s1.front().kbps;
  double spread2 = s2.back().kbps - s2.front().kbps;
  EXPECT_GT(spread2, spread1);
}

TEST(Scenario, ScenariosBracketPointEstimate) {
  ScenarioPredictor p;
  for (double v : {800.0, 1200.0, 1000.0}) p.observe(v);
  auto scenarios = p.scenarios();
  double point = p.predict_kbps();
  EXPECT_LT(scenarios.front().kbps, point);
  EXPECT_GT(scenarios.back().kbps, point);
  EXPECT_DOUBLE_EQ(scenarios[1].kbps, point);
}

// The ScenarioPredictor memo must be invisible: scenarios_into on an
// unchanged window replays the exact fan, and a new observation refreshes it.
TEST(Scenario, PredictorCacheIsTransparent) {
  ScenarioPredictor cached(8), plain(8);
  std::vector<ThroughputScenario> a, b, c;
  std::mt19937_64 rng(77);
  for (int i = 0; i < 40; ++i) {
    const double kbps = 500.0 + static_cast<double>(rng() % 4000);
    cached.observe(kbps);
    plain.observe(kbps);
    cached.scenarios_into(a);
    cached.scenarios_into(b);  // unchanged window: served from the memo
    plain.scenarios_into(c);
    ASSERT_EQ(a.size(), 3u);
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(a[s].kbps, b[s].kbps) << i;
      EXPECT_EQ(a[s].probability, b[s].probability) << i;
      EXPECT_EQ(a[s].kbps, c[s].kbps) << i;
      EXPECT_EQ(a[s].probability, c[s].probability) << i;
    }
  }
}

TEST(Scenario, DefaultInterfaceSinglePoint) {
  // Base-class default: one scenario with probability 1.
  HarmonicMeanPredictor p(3, 500);
  auto scenarios = static_cast<ThroughputPredictor&>(p).scenarios();
  ASSERT_EQ(scenarios.size(), 1u);
  EXPECT_DOUBLE_EQ(scenarios[0].probability, 1.0);
  EXPECT_DOUBLE_EQ(scenarios[0].kbps, 500.0);
}

}  // namespace
}  // namespace sensei::net
