#include "core/sensei.h"

#include <gtest/gtest.h>

#include "media/dataset.h"
#include "qoe/sensei_qoe.h"
#include "util/stats.h"

namespace sensei::core {
namespace {

class CoreTest : public ::testing::Test {
 protected:
  media::EncodedVideo video_ = media::Encoder().encode(
      media::SourceVideo::generate("CoreTest", media::Genre::kAnimation, 80));
  crowd::GroundTruthQoE oracle_;
};

TEST_F(CoreTest, ProfileProducesManifestWithWeights) {
  Sensei sensei(oracle_, crowd::SchedulerConfig(), 11);
  ProfileOutput out = sensei.profile(video_);
  EXPECT_EQ(out.manifest.video_name, video_.source().name());
  EXPECT_EQ(out.manifest.num_chunks, video_.num_chunks());
  EXPECT_EQ(out.manifest.weights.size(), video_.num_chunks());
  EXPECT_EQ(out.manifest.bitrates_kbps.size(), 5u);
  EXPECT_NEAR(util::mean(out.profile.weights), 1.0, 1e-9);
  EXPECT_GT(out.profile.cost_usd, 0.0);
}

TEST_F(CoreTest, ManifestSurvivesXmlRoundTrip) {
  Sensei sensei(oracle_, crowd::SchedulerConfig(), 12);
  ProfileOutput out = sensei.profile(video_);
  sim::Manifest parsed = sim::Manifest::from_xml(out.manifest.to_xml());
  ASSERT_EQ(parsed.weights.size(), out.manifest.weights.size());
  for (size_t i = 0; i < parsed.weights.size(); ++i) {
    EXPECT_NEAR(parsed.weights[i], out.manifest.weights[i], 1e-6);
  }
}

TEST_F(CoreTest, QoeModelBuiltFromProfile) {
  Sensei sensei(oracle_, crowd::SchedulerConfig(), 13);
  ProfileOutput out = sensei.profile(video_);
  qoe::SenseiQoeModel model(out.profile.weights);
  EXPECT_EQ(model.weights(), out.profile.weights);
  double q = model.predict(sim::RenderedVideo::pristine(video_));
  EXPECT_GT(q, 0.0);
  EXPECT_LE(q, 1.0);
}

TEST_F(CoreTest, ProfilingIsDeterministicPerSeed) {
  Sensei a(oracle_, crowd::SchedulerConfig(), 99);
  Sensei b(oracle_, crowd::SchedulerConfig(), 99);
  EXPECT_EQ(a.profile(video_).profile.weights, b.profile(video_).profile.weights);
}

}  // namespace
}  // namespace sensei::core
