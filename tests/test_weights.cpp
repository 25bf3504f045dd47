#include "crowd/weights.h"

#include <gtest/gtest.h>

#include "crowd/ground_truth.h"
#include "media/dataset.h"
#include "util/stats.h"

namespace sensei::crowd {
namespace {

class WeightsTest : public ::testing::Test {
 protected:
  media::EncodedVideo clip_ = media::Encoder().encode(media::Dataset::soccer1_clip());
  GroundTruthQoE oracle_;
  sim::RenderedVideo reference_ = sim::RenderedVideo::pristine(clip_);
};

TEST_F(WeightsTest, NormalizeMeanOne) {
  std::vector<double> w = {2.0, 4.0, 6.0};
  normalize_mean_one(w);
  EXPECT_NEAR(util::mean(w), 1.0, 1e-12);
  EXPECT_NEAR(w[2] / w[0], 3.0, 1e-12);

  std::vector<double> zeros = {0.0, 0.0};
  normalize_mean_one(zeros);
  EXPECT_DOUBLE_EQ(zeros[0], 1.0);

  std::vector<double> empty;
  normalize_mean_one(empty);  // no crash
}

TEST_F(WeightsTest, RecoverySensitivityOrderingFromNoiselessMos) {
  // Noiseless MOS straight from the oracle: inference must recover the true
  // sensitivity ordering of the clip.
  auto series = sim::rebuffer_series(clip_, 1.0);
  std::vector<double> mos;
  for (const auto& v : series) mos.push_back(oracle_.score(v));
  WeightSystem system(reference_);
  for (size_t j = 0; j < series.size(); ++j) system.add(series[j], mos[j]);
  auto w = system.solve(oracle_.score(reference_));
  ASSERT_EQ(w.size(), clip_.num_chunks());
  EXPECT_NEAR(util::mean(w), 1.0, 1e-9);
  auto s = clip_.source().true_sensitivity();
  EXPECT_GT(util::spearman(w, s), 0.85);
  // The goal chunk carries the largest weight.
  EXPECT_EQ(std::max_element(w.begin(), w.end()) - w.begin(), 3);
}

TEST_F(WeightsTest, MixedIncidentTypesStillRecover) {
  auto series = sim::rebuffer_series(clip_, 1.0);
  auto drops = sim::bitrate_drop_series(clip_, 0, 1);
  series.insert(series.end(), drops.begin(), drops.end());
  std::vector<double> mos;
  for (const auto& v : series) mos.push_back(oracle_.score(v));
  WeightSystem system(reference_);
  for (size_t j = 0; j < series.size(); ++j) system.add(series[j], mos[j]);
  auto w = system.solve(oracle_.score(reference_));
  EXPECT_GT(util::spearman(w, clip_.source().true_sensitivity()), 0.8);
}

TEST_F(WeightsTest, UntouchedChunksGetNeutralFill) {
  // Only chunks 0 and 1 receive incidents; others must get the fill value.
  auto base = sim::RenderedVideo::pristine(clip_);
  std::vector<sim::RenderedVideo> videos = {base.with_rebuffering(0, 1.0),
                                            base.with_rebuffering(1, 1.0)};
  WeightSystem system(reference_);
  for (const auto& v : videos) system.add(v, oracle_.score(v));
  auto w = system.solve(oracle_.score(reference_));
  // Chunks 3..5 were untouched; they share one fill value.
  EXPECT_DOUBLE_EQ(w[3], w[4]);
  EXPECT_DOUBLE_EQ(w[4], w[5]);
}

TEST_F(WeightsTest, AllWeightsNonNegative) {
  auto series = sim::rebuffer_series(clip_, 1.0);
  std::vector<double> mos;
  // Adversarial noise: some MOS above the reference.
  for (size_t j = 0; j < series.size(); ++j) {
    mos.push_back(oracle_.score(series[j]) + (j % 2 ? 0.3 : -0.3));
  }
  WeightSystem system(reference_);
  for (size_t j = 0; j < series.size(); ++j) system.add(series[j], mos[j]);
  auto w = system.solve(oracle_.score(reference_));
  for (double x : w) EXPECT_GE(x, 0.0);
}

TEST_F(WeightsTest, EmptyInputsGiveUnitWeights) {
  WeightSystem system(reference_);
  auto w = system.solve(1.0);
  ASSERT_EQ(w.size(), 6u);
  for (double x : w) EXPECT_DOUBLE_EQ(x, 1.0);

  // The reference itself differs from the reference nowhere: no row.
  system.add(reference_, 0.2);
  EXPECT_EQ(system.solve(1.0), w);
}

TEST_F(WeightsTest, PooledSolveMatchesFreshSystem) {
  // Rows added before a solve are kept for the next one: solving again after
  // more renderings equals one system built over all of them.
  auto series = sim::rebuffer_series(clip_, 1.0);
  auto drops = sim::bitrate_drop_series(clip_, 0, 1);
  WeightSystem pooled(reference_);
  for (const auto& v : series) pooled.add(v, oracle_.score(v));
  auto provisional = pooled.solve(0.9);
  for (const auto& v : drops) pooled.add(v, oracle_.score(v));

  WeightSystem fresh(reference_);
  for (const auto& v : series) fresh.add(v, oracle_.score(v));
  for (const auto& v : drops) fresh.add(v, oracle_.score(v));
  EXPECT_EQ(pooled.solve(0.95), fresh.solve(0.95));
  EXPECT_NE(pooled.solve(0.95), provisional);
}

TEST_F(WeightsTest, ClipRenderingsConstrainOnlyCoveredChunks) {
  // Renderings of a 3-chunk clip must not constrain chunks 3..5.
  auto clip_video = clip_.source().clip(0, 3, "head");
  auto clip_encoded = media::Encoder().encode(clip_video);
  auto series = sim::rebuffer_series(clip_encoded, 1.0);
  std::vector<double> mos;
  for (const auto& v : series) mos.push_back(oracle_.score(v));
  WeightSystem system(reference_);
  for (size_t j = 0; j < series.size(); ++j) system.add(series[j], mos[j]);
  auto w = system.solve(oracle_.score(reference_));
  ASSERT_EQ(w.size(), 6u);
  EXPECT_DOUBLE_EQ(w[3], w[4]);  // untouched tail shares the fill value
}

}  // namespace
}  // namespace sensei::crowd
