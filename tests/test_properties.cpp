// Cross-module property tests: invariants that must hold for every video in
// the Table-1 dataset and for randomized renderings.
#include <gtest/gtest.h>

#include "crowd/ground_truth.h"
#include "crowd/weights.h"
#include "media/dataset.h"
#include "qoe/sensei_qoe.h"
#include "sim/manifest.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sensei {
namespace {

class DatasetSweep : public ::testing::TestWithParam<const char*> {
 protected:
  media::EncodedVideo encoded() const {
    return media::Encoder().encode(media::Dataset::by_name(GetParam()));
  }
};

// Adding any stall anywhere never increases the oracle QoE.
TEST_P(DatasetSweep, OracleMonotoneInStalls) {
  auto video = encoded();
  crowd::GroundTruthQoE oracle;
  auto base = sim::RenderedVideo::pristine(video);
  double q0 = oracle.score(base);
  util::Rng rng = util::Rng::from_string(GetParam(), 0xB0 + 1);
  for (int k = 0; k < 8; ++k) {
    size_t chunk = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int>(video.num_chunks()) - 1));
    double stall = rng.uniform(0.5, 5.0);
    EXPECT_LE(oracle.score(base.with_rebuffering(chunk, stall)), q0 + 1e-9)
        << GetParam() << " chunk " << chunk;
  }
}

// Dropping any chunk's bitrate never increases the oracle QoE... except the
// smoothness term can make a *single* chunk at a slightly lower rung
// preferable is impossible here since pristine has no switches: dropping
// introduces switches AND lowers vq, so QoE must not increase.
TEST_P(DatasetSweep, OracleMonotoneInBitrateDrops) {
  auto video = encoded();
  crowd::GroundTruthQoE oracle;
  auto base = sim::RenderedVideo::pristine(video);
  double q0 = oracle.score(base);
  util::Rng rng = util::Rng::from_string(GetParam(), 77);
  for (int k = 0; k < 8; ++k) {
    size_t chunk = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int>(video.num_chunks()) - 1));
    size_t level = static_cast<size_t>(rng.uniform_int(0, 3));
    EXPECT_LE(oracle.score(base.with_bitrate_drop(chunk, 1, level, video)), q0 + 1e-9);
  }
}

// A stall at the most sensitive chunk hurts at least as much as the same
// stall at the least sensitive chunk — for every video in the dataset.
TEST_P(DatasetSweep, SensitiveChunkStallsHurtMore) {
  auto video = encoded();
  crowd::GroundTruthQoE oracle;
  auto s = video.source().true_sensitivity();
  size_t hi = 0, lo = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] > s[hi]) hi = i;
    if (s[i] < s[lo]) lo = i;
  }
  auto base = sim::RenderedVideo::pristine(video);
  double q_hi = oracle.score(base.with_rebuffering(hi, 2.0));
  double q_lo = oracle.score(base.with_rebuffering(lo, 2.0));
  EXPECT_LE(q_hi, q_lo + 1e-9) << GetParam();
}

// Noiseless weight inference recovers a positive sensitivity correlation on
// every dataset video (with noise the scheduler tests cover looser bounds).
TEST_P(DatasetSweep, NoiselessInferenceRecoversSensitivity) {
  auto video = encoded();
  crowd::GroundTruthQoE oracle;
  auto series = sim::rebuffer_series(video, 1.0);
  auto reference = sim::RenderedVideo::pristine(video);
  crowd::WeightSystem system(reference);
  for (const auto& v : series) system.add(v, oracle.score(v));
  auto w = system.solve(oracle.score(reference));
  EXPECT_GT(util::spearman(w, video.source().true_sensitivity()), 0.6) << GetParam();
}

// Manifest XML roundtrip is lossless for every video's profile-shaped data.
TEST_P(DatasetSweep, ManifestRoundTripLossless) {
  auto video = encoded();
  util::Rng rng = util::Rng::from_string(GetParam(), 3);
  sim::Manifest m;
  m.video_name = video.source().name();
  m.chunk_duration_s = video.chunk_duration_s();
  m.num_chunks = video.num_chunks();
  m.bitrates_kbps = video.ladder().levels_kbps();
  for (size_t i = 0; i < m.num_chunks; ++i) m.weights.push_back(rng.uniform(0.2, 2.2));
  sim::Manifest back = sim::Manifest::from_xml(m.to_xml());
  ASSERT_EQ(back.weights.size(), m.weights.size());
  for (size_t i = 0; i < m.weights.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.weights[i], m.weights[i]);
  }
}

// KSQI (position-blind) predicts the same value for a fixed incident
// regardless of where it lands, provided no chunk quality floors out.
TEST_P(DatasetSweep, KsqiPositionBlindness) {
  auto video = encoded();
  qoe::SenseiQoeModel ksqi;  // no weights: KSQI
  auto base = sim::RenderedVideo::pristine(video);
  double first = ksqi.raw_score(base.with_rebuffering(1, 0.5));
  for (size_t chunk = 3; chunk < video.num_chunks(); chunk += 7) {
    EXPECT_NEAR(ksqi.raw_score(base.with_rebuffering(chunk, 0.5)), first, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVideos, DatasetSweep,
                         ::testing::Values("Basket1", "Soccer1", "Basket2", "Soccer2",
                                           "Discus", "Wrestling", "Motor", "Tank", "FPS1",
                                           "FPS2", "Mountain", "Animal", "Space", "Girl",
                                           "Lava", "BigBuckBunny"));

}  // namespace
}  // namespace sensei
