// End-to-end integration tests: profile -> manifest -> player -> ABR -> QoE.
#include <gtest/gtest.h>

#include "abr/bba.h"
#include "abr/registry.h"
#include "core/sensei.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "qoe/ksqi.h"
#include "qoe/sensei_qoe.h"
#include "sim/player.h"
#include "util/stats.h"

namespace sensei {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  media::EncodedVideo video_ =
      media::Encoder().encode(media::Dataset::by_name("Soccer1"));
  crowd::GroundTruthQoE oracle_;
};

TEST_F(IntegrationTest, FullPipelineProfileStreamScore) {
  core::Sensei sensei(oracle_, crowd::SchedulerConfig(), 21);
  core::ProfileOutput profiled = sensei.profile(video_);

  // Weights travel through the manifest exactly as a CDN would ship them.
  sim::Manifest manifest = sim::Manifest::from_xml(profiled.manifest.to_xml());

  sim::Player player;
  auto sensei_fugu = abr::make_policy("sensei-fugu");
  auto fugu = abr::make_policy("fugu");

  // Average over several constrained cellular traces: single sessions on
  // bursty links are chaotic, the aggregate must be competitive.
  double q_base = 0.0, q_ours = 0.0;
  for (uint64_t seed : {22, 23, 24}) {
    auto trace = net::TraceGenerator::cellular("int-cell", 1200, 700.0, seed);
    auto base = player.stream(video_, trace, *fugu);
    auto ours = player.stream(video_, trace, *sensei_fugu, manifest.weights);
    q_base += oracle_.score(base.to_rendered(video_));
    q_ours += oracle_.score(ours.to_rendered(video_));
    EXPECT_EQ(ours.chunks().size(), video_.num_chunks());
  }
  EXPECT_GT(q_ours, q_base * 0.95);
}

TEST_F(IntegrationTest, ProfiledWeightsAreInformativeAcrossDataset) {
  // Profile three videos of different genres; inferred weights must
  // positively correlate with hidden sensitivity for all of them.
  core::Sensei sensei(oracle_, crowd::SchedulerConfig(), 23);
  for (const char* name : {"Basket1", "Space", "BigBuckBunny"}) {
    auto video = media::Encoder().encode(media::Dataset::by_name(name));
    auto out = sensei.profile(video);
    double srcc =
        util::spearman(out.profile.weights, video.source().true_sensitivity());
    EXPECT_GT(srcc, 0.25) << name;
  }
}

TEST_F(IntegrationTest, SenseiQoeModelBeatsKsqiOnHeldOutSeries) {
  // Train both models on rendered series of one video; evaluate prediction
  // accuracy against oracle scores on a held-out incident type.
  core::Sensei sensei(oracle_, crowd::SchedulerConfig(), 24);
  auto out = sensei.profile(video_);

  auto train = sim::rebuffer_series(video_, 1.0);
  auto test = sim::bitrate_drop_series(video_, 0, 2);
  std::vector<double> train_mos, test_mos;
  for (const auto& v : train) train_mos.push_back(oracle_.score(v));
  for (const auto& v : test) test_mos.push_back(oracle_.score(v));

  qoe::SenseiQoeModel ours(out.profile.weights);
  qoe::KsqiModel ksqi;
  ours.train(train, train_mos);
  ksqi.train(train, train_mos);

  double ours_plcc = util::pearson(ours.predict_all(test), test_mos);
  double ksqi_plcc = util::pearson(ksqi.predict_all(test), test_mos);
  EXPECT_GT(ours_plcc, ksqi_plcc);
}

TEST_F(IntegrationTest, BbaSessionsScoreReasonably) {
  abr::BbaAbr bba;
  sim::Player player;
  auto traces = net::TraceGenerator::test_set(500.0);
  for (size_t t = 2; t < traces.size(); t += 3) {
    auto session = player.stream(video_, traces[t], bba);
    double q = oracle_.score(session.to_rendered(video_));
    EXPECT_GT(q, 0.1);
    EXPECT_LE(q, 1.0);
  }
}

TEST_F(IntegrationTest, WeightHorizonReachesPolicy) {
  // The manifest horizon plumbing: a policy observing weights must see
  // exactly the configured horizon while far from the video end.
  struct Probe : sim::AbrPolicy {
    size_t seen = 0;
    const char* name() const override { return "probe"; }
    sim::AbrDecision decide(const sim::AbrObservation& obs) override {
      if (obs.next_chunk == 10) seen = obs.future_weights.size();
      return {1, 0.0};
    }
  } probe;
  std::vector<double> weights(video_.num_chunks(), 1.0);
  sim::PlayerConfig config;
  config.weight_horizon = 5;
  sim::Player player(config);
  auto trace = net::TraceGenerator::broadband("bb", 3000, 600.0, 25);
  player.stream(video_, trace, probe, weights);
  EXPECT_EQ(probe.seen, 5u);
}

}  // namespace
}  // namespace sensei
