#include "qoe/chunk_quality.h"

#include <gtest/gtest.h>

#include "media/dataset.h"

namespace sensei::qoe {
namespace {

TEST(ChunkQuality, NoIncidentsEqualsVisualQuality) {
  EXPECT_DOUBLE_EQ(chunk_quality(0.8, 0.0, 0.8), 0.8);
}

TEST(ChunkQuality, StallPenaltyMonotoneAndSaturating) {
  EXPECT_DOUBLE_EQ(stall_penalty(0.0), 0.0);
  EXPECT_DOUBLE_EQ(stall_penalty(-1.0), 0.0);
  double p1 = stall_penalty(1.0), p2 = stall_penalty(2.0);
  double p3 = stall_penalty(3.0), p4 = stall_penalty(4.0);
  EXPECT_GT(p1, 0.0);
  EXPECT_GT(p2, p1);
  EXPECT_GT(p4, p3);
  // Saturation: per-second marginal penalty decreases.
  EXPECT_LT(p4 - p3, p2 - p1 + 1e-9);
}

TEST(ChunkQuality, RebufferingHurts) {
  double clean = chunk_quality(0.8, 0.0, 0.8);
  double stalled = chunk_quality(0.8, 1.0, 0.8);
  EXPECT_LT(stalled, clean);
}

TEST(ChunkQuality, SwitchesHurtSymmetrically) {
  double up = chunk_quality(0.8, 0.0, 0.5);
  double down = chunk_quality(0.8, 0.0, 1.1);
  double flat = chunk_quality(0.8, 0.0, 0.8);
  EXPECT_LT(up, flat);
  EXPECT_DOUBLE_EQ(up, down);  // |delta| is the same
}

TEST(ChunkQuality, FloorBoundsCatastrophe) {
  ChunkQualityParams p;
  double q = chunk_quality(0.1, 1000.0, 0.9, p);
  EXPECT_DOUBLE_EQ(q, p.floor);
}

TEST(ChunkQuality, CustomParamsChangeShape) {
  ChunkQualityParams harsh;
  harsh.beta_rebuf = 5.0;
  double soft = chunk_quality(0.8, 1.0, 0.8);
  double hard = chunk_quality(0.8, 1.0, 0.8, harsh);
  EXPECT_LT(hard, soft);
}

TEST(ChunkQuality, VectorOverRenderedVideo) {
  auto video = media::Encoder().encode(media::Dataset::soccer1_clip());
  auto rendered = sim::RenderedVideo::pristine(video).with_rebuffering(3, 1.0);
  std::vector<double> q;
  chunk_qualities_into(rendered, ChunkQualityParams(), q);
  ASSERT_EQ(q.size(), rendered.num_chunks());
  // Every entry matches the scalar chunk_quality applied per chunk; complexity
  // varies across chunks, so even pristine neighbours carry small |dvq| terms.
  for (size_t i = 0; i < q.size(); ++i) {
    double prev = i > 0 ? rendered.chunk(i - 1).visual_quality
                        : rendered.chunk(i).visual_quality;
    EXPECT_DOUBLE_EQ(
        q[i], chunk_quality(rendered.chunk(i).visual_quality,
                            rendered.chunk(i).rebuffer_s, prev));
    if (i == 3) {
      EXPECT_LT(q[i], rendered.chunk(i).visual_quality - 0.5);
    }
  }
}

// Parameterized: chunk quality is monotone non-increasing in stall length
// for any stall in a realistic sweep.
class StallSweep : public ::testing::TestWithParam<double> {};

TEST_P(StallSweep, MonotoneInStall) {
  double t = GetParam();
  EXPECT_LE(chunk_quality(0.9, t + 0.5, 0.9), chunk_quality(0.9, t, 0.9));
}

INSTANTIATE_TEST_SUITE_P(Stalls, StallSweep,
                         ::testing::Values(0.0, 0.5, 1.0, 2.0, 4.0, 8.0));

}  // namespace
}  // namespace sensei::qoe
