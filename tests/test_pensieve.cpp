#include "abr/pensieve.h"

#include "abr/fugu.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "media/dataset.h"
#include "net/trace_gen.h"
#include "qoe/sensei_qoe.h"
#include "sim/player.h"

namespace sensei::abr {
namespace {

class PensieveTest : public ::testing::Test {
 protected:
  media::EncodedVideo video_ = media::Encoder().encode(
      media::SourceVideo::generate("PenTest", media::Genre::kSports, 120));
  sim::Player player_;
};

TEST_F(PensieveTest, FeatureLayoutBaseMode) {
  PensieveAbr policy{PensieveConfig{}, 1};
  EXPECT_EQ(policy.feature_count(), 1u + 1 + 8 + 1 + 5 + 1);
  EXPECT_EQ(policy.action_count(), 5u);
}

TEST_F(PensieveTest, FeatureLayoutSenseiMode) {
  PensieveConfig cfg;
  cfg.sensei_mode = true;
  PensieveAbr policy{cfg, 1};
  EXPECT_EQ(policy.feature_count(), 17u + cfg.weight_horizon);
  EXPECT_EQ(policy.action_count(), 5u + cfg.rebuffer_actions.size());
}

TEST_F(PensieveTest, FeaturizeProducesBoundedValues) {
  PensieveConfig cfg;
  cfg.sensei_mode = true;
  PensieveAbr policy{cfg, 2};
  sim::AbrObservation obs;
  obs.video = &video_;
  obs.next_chunk = 10;
  obs.num_chunks = video_.num_chunks();
  obs.buffer_s = 15.0;
  obs.last_level = 3;
  obs.last_throughput_kbps = 1500.0;
  const std::vector<double> weights = {1.2, 0.8};
  obs.future_weights = {weights.data(), weights.size()};
  auto f = policy.featurize(obs);
  ASSERT_EQ(f.size(), policy.feature_count());
  for (double v : f) {
    EXPECT_GE(v, -0.01);
    EXPECT_LT(v, 10.0);
  }
  // Missing future weights pad with 1.0.
  EXPECT_DOUBLE_EQ(f[f.size() - 1], 1.0);
  EXPECT_DOUBLE_EQ(f[f.size() - 5], 1.2);
}

// The throughput taps are features 2 .. 2 + throughput_taps: the session's
// last goodputs, oldest first, zero-padded in front.
TEST_F(PensieveTest, ThroughputTapsHoldTheSessionsLastGoodputs) {
  PensieveConfig cfg;
  cfg.throughput_taps = 3;
  PensieveAbr policy{cfg, 3};
  sim::AbrObservation obs;
  obs.video = &video_;
  obs.num_chunks = video_.num_chunks();
  auto taps = [&](size_t chunk, double last_kbps) {
    obs.next_chunk = chunk;
    obs.last_throughput_kbps = last_kbps;
    const std::vector<double> f = policy.featurize(obs);
    return std::vector<double>(f.begin() + 2, f.begin() + 2 + 3);
  };
  using V = std::vector<double>;
  // Chunk 0 takes no tap: its observation has no download behind it.
  EXPECT_EQ(taps(0, 9999.0), (V{0.0, 0.0, 0.0}));
  EXPECT_EQ(taps(1, 1000.0), (V{0.0, 0.0, 0.2}));
  // A zero goodput is a tap, not a gap.
  EXPECT_EQ(taps(2, 0.0), (V{0.0, 0.2, 0.0}));
  EXPECT_EQ(taps(3, 2000.0), (V{0.2, 0.0, 0.4}));
  // Bounded: the oldest tap leaves.
  EXPECT_EQ(taps(4, 2500.0), (V{0.0, 0.4, 0.5}));
  // Chunk 0 of the next session clears them.
  EXPECT_EQ(taps(0, 2500.0), (V{0.0, 0.0, 0.0}));
  EXPECT_EQ(taps(1, 500.0), (V{0.0, 0.0, 0.1}));
}

// A one-rung ladder leaves no level to normalize by: the last-level
// feature is 0, never 0/0.
TEST_F(PensieveTest, OneRungLadderFeaturesAreFinite) {
  auto video = media::Encoder(media::BitrateLadder({500.0}))
                   .encode(media::SourceVideo::generate("OneRung", media::Genre::kSports, 60));
  PensieveAbr policy{PensieveConfig{}, 4};
  policy.set_training(true);
  auto s = player_.stream(video, net::TraceGenerator::broadband("b", 2000, 600.0, 5), policy);
  ASSERT_EQ(policy.episode().size(), s.chunks().size());
  for (const PensieveAbr::Step& step : policy.episode()) {
    for (double v : step.features) EXPECT_TRUE(std::isfinite(v));
  }
}

// The action head has five rungs: a longer ladder would never reach its top
// rungs, so a session on one fails up front, naming both counts. Five rungs
// or fewer stream as before.
TEST_F(PensieveTest, LadderLongerThanFiveRungsIsRejected) {
  const media::BitrateLadder seven({300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0, 6000.0});
  auto video = media::Encoder(seven).encode(
      media::SourceVideo::generate("SevenRung", media::Genre::kSports, 60));
  const auto trace = net::TraceGenerator::broadband("b", 20000, 600.0, 5);
  for (bool sensei_mode : {false, true}) {
    PensieveConfig cfg;
    cfg.sensei_mode = sensei_mode;
    PensieveAbr policy{cfg, 6};
    try {
      player_.stream(video, trace, policy);
      ADD_FAILURE() << "a 7-rung ladder streamed";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("7-rung"), std::string::npos) << message;
      EXPECT_NE(message.find("at most 5"), std::string::npos) << message;
    }
  }
  auto five = media::Encoder(media::BitrateLadder({300.0, 750.0, 1200.0, 1850.0, 2850.0}))
                  .encode(media::SourceVideo::generate("FiveRung", media::Genre::kSports, 60));
  PensieveAbr policy{PensieveConfig{}, 6};
  EXPECT_EQ(player_.stream(five, trace, policy).chunks().size(), five.num_chunks());
}

TEST_F(PensieveTest, GreedyDecisionsAreDeterministic) {
  PensieveAbr a{PensieveConfig{}, 7};
  PensieveAbr b{PensieveConfig{}, 7};
  auto trace = net::TraceGenerator::broadband("b", 2000, 600.0, 3);
  auto sa = player_.stream(video_, trace, a);
  auto sb = player_.stream(video_, trace, b);
  for (size_t i = 0; i < sa.chunks().size(); ++i) {
    EXPECT_EQ(sa.chunks()[i].level, sb.chunks()[i].level);
  }
}

TEST_F(PensieveTest, TrainingRecordsEpisodes) {
  PensieveAbr policy{PensieveConfig{}, 8};
  policy.set_training(true);
  auto trace = net::TraceGenerator::cellular("c", 1500, 600.0, 4);
  player_.stream(video_, trace, policy);
  EXPECT_EQ(policy.episode().size(), video_.num_chunks());
  policy.set_training(false);
}

TEST_F(PensieveTest, EvaluationDoesNotRecord) {
  PensieveAbr policy{PensieveConfig{}, 9};
  auto trace = net::TraceGenerator::cellular("c", 1500, 600.0, 5);
  player_.stream(video_, trace, policy);
  EXPECT_TRUE(policy.episode().empty());
}

TEST_F(PensieveTest, RebufferActionMaskedOnFirstChunk) {
  PensieveConfig cfg;
  cfg.sensei_mode = true;
  PensieveAbr policy{cfg, 10};
  policy.set_training(true);  // sampling could hit rebuffer actions
  auto trace = net::TraceGenerator::broadband("b", 2500, 600.0, 6);
  std::vector<double> w(video_.num_chunks(), 1.0);
  auto s = player_.stream(video_, trace, policy, w);
  EXPECT_DOUBLE_EQ(s.chunks()[0].scheduled_rebuffer_s, 0.0);
}

TEST_F(PensieveTest, RewardsFromSessionUseWeights) {
  FuguAbr helper;  // any policy; we only need a session
  auto trace = net::TraceGenerator::broadband("b", 2000, 600.0, 7);
  auto session = player_.stream(video_, trace, helper);
  std::vector<double> unit(video_.num_chunks(), 1.0);
  std::vector<double> heavy(video_.num_chunks(), 2.0);
  auto r1 = PensieveTrainer::rewards_from_session(session, unit, {});
  auto r2 = PensieveTrainer::rewards_from_session(session, heavy, {});
  ASSERT_EQ(r1.size(), session.chunks().size());
  for (size_t i = 0; i < r1.size(); ++i) EXPECT_NEAR(r2[i], 2.0 * r1[i], 1e-9);
}

TEST_F(PensieveTest, CloneUpdateMovesPolicyTowardTeacher) {
  PensieveAbr policy{PensieveConfig{}, 11};
  // Build a fixed state and repeatedly clone toward action 3.
  sim::AbrObservation obs;
  obs.video = &video_;
  obs.next_chunk = 5;
  obs.num_chunks = video_.num_chunks();
  obs.buffer_s = 12.0;
  auto features = policy.featurize(obs);
  for (int it = 0; it < 200; ++it) {
    policy.set_training(true);
    policy.mutable_episode().push_back({features, 0});
    policy.clone_update({3}, 5e-3);
    policy.set_training(false);
  }
  // Greedy decision at that state should now be action 3.
  auto d = policy.decide(obs);
  EXPECT_EQ(d.level, 3u);
}

TEST_F(PensieveTest, ShortTrainingRunImprovesReward) {
  // Smoke test that the full trainer loop runs and the trained policy is at
  // least as good as the untrained one on a training trace.
  PensieveAbr policy{PensieveConfig{}, 12};
  std::vector<media::EncodedVideo> videos = {video_};
  std::vector<net::ThroughputTrace> traces = {
      net::TraceGenerator::broadband("t", 1800, 600.0, 8)};

  auto mean_quality = [&](PensieveAbr& p) {
    auto s = player_.stream(video_, traces[0], p);
    return qoe::SenseiQoeModel().raw_score(s.to_rendered(video_));
  };

  double before = mean_quality(policy);
  PensieveTrainer::Options options;
  options.episodes = 600;
  options.bc_episodes = 150;
  options.seed = 13;
  PensieveTrainer::train(policy, videos, traces, {}, options);
  double after = mean_quality(policy);
  EXPECT_GT(after, before - 0.05);  // never catastrophically worse
}

TEST_F(PensieveTest, TrainerValidatesInputs) {
  PensieveAbr policy{PensieveConfig{}, 14};
  std::vector<media::EncodedVideo> videos = {video_};
  std::vector<net::ThroughputTrace> traces;
  EXPECT_THROW(PensieveTrainer::train(policy, videos, traces, {}), std::runtime_error);
  traces.push_back(net::TraceGenerator::broadband("t", 1800, 300.0, 9));
  std::vector<std::vector<double>> bad_weights(3);
  EXPECT_THROW(PensieveTrainer::train(policy, videos, traces, bad_weights),
               std::runtime_error);
}

}  // namespace
}  // namespace sensei::abr
