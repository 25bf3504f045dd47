// End-to-end integration tests: profile -> manifest -> player -> ABR -> QoE.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "abr/bba.h"
#include "abr/registry.h"
#include "core/sensei.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "qoe/sensei_qoe.h"
#include "sim/player.h"
#include "util/rng.h"
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
  qoe::SenseiQoeModel ksqi;  // no weights: KSQI
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

// SENSEI-Fugu at horizon 7 plans on all seven weights of its window: every
// decision of a streamed session matches a twin handed the whole window by
// hand, and a twin that sees only five weights decides otherwise somewhere.
TEST_F(IntegrationTest, SenseiFuguHorizonSevenReadsItsWholeWindow) {
  std::vector<double> weights(video_.num_chunks());
  util::Rng rng(0x7e7);
  for (double& w : weights) w = rng.uniform(0.2, 3.0);
  struct Twins : sim::AbrPolicy {
    const std::vector<double>* weights = nullptr;
    std::unique_ptr<sim::AbrPolicy> live = abr::make_policy("sensei-fugu:horizon=7");
    std::unique_ptr<sim::AbrPolicy> whole = abr::make_policy("sensei-fugu:horizon=7");
    std::unique_ptr<sim::AbrPolicy> five = abr::make_policy("sensei-fugu:horizon=7");
    size_t decisions = 0, whole_diffs = 0, five_diffs = 0;
    const char* name() const override { return "twins"; }
    void begin_session(const media::EncodedVideo& video) override {
      for (auto* p : {&live, &whole, &five}) (*p)->begin_session(video);
    }
    sim::AbrDecision decide(const sim::AbrObservation& obs) override {
      const sim::AbrDecision d = live->decide(obs);
      sim::AbrObservation by_hand = obs;
      const size_t window = std::min<size_t>(7, weights->size() - obs.next_chunk);
      by_hand.future_weights = {weights->data() + obs.next_chunk, window};
      const sim::AbrDecision w = whole->decide(by_hand);
      by_hand.future_weights.count = std::min<size_t>(5, window);
      const sim::AbrDecision f = five->decide(by_hand);
      const auto differ = [](const sim::AbrDecision& a, const sim::AbrDecision& b) {
        return a.level != b.level || a.scheduled_rebuffer_s != b.scheduled_rebuffer_s;
      };
      ++decisions;
      whole_diffs += differ(d, w) ? 1 : 0;
      five_diffs += differ(d, f) ? 1 : 0;
      return d;
    }
  };
  size_t five_diffs = 0;
  for (uint64_t seed : {31, 32, 33}) {
    Twins twins;
    twins.weights = &weights;
    sim::Player().stream(video_, net::TraceGenerator::cellular("h7", 1200, 700.0, seed), twins,
                         weights);
    EXPECT_EQ(twins.decisions, video_.num_chunks()) << seed;
    EXPECT_EQ(twins.whole_diffs, 0u) << seed;
    five_diffs += twins.five_diffs;
  }
  EXPECT_GT(five_diffs, 0u);
}

TEST_F(IntegrationTest, WeightHorizonReachesPolicy) {
  // The weight plumbing: at chunk 10 the policy sees every remaining
  // weight; its own horizon bounds what it reads.
  std::vector<double> weights(video_.num_chunks());
  for (size_t i = 0; i < weights.size(); ++i) weights[i] = 0.5 + 0.01 * static_cast<double>(i);
  struct Probe : sim::AbrPolicy {
    std::vector<double> seen;
    const char* name() const override { return "probe"; }
    sim::AbrDecision decide(const sim::AbrObservation& obs) override {
      if (obs.next_chunk == 10) {
        for (size_t k = 0; k < obs.future_weights.size(); ++k) {
          seen.push_back(obs.future_weights[k]);
        }
      }
      return {1, 0.0};
    }
  } probe;
  sim::Player player;
  auto trace = net::TraceGenerator::broadband("bb", 3000, 600.0, 25);
  player.stream(video_, trace, probe, weights);
  ASSERT_GT(video_.num_chunks(), 15u);
  EXPECT_EQ(probe.seen, std::vector<double>(weights.begin() + 10, weights.end()));
}

}  // namespace
}  // namespace sensei
