#include "sim/player.h"

#include <gtest/gtest.h>

#include "media/dataset.h"
#include "net/trace_gen.h"

namespace sensei::sim {
namespace {

// Scripted policy: plays back a fixed decision list (wrapping).
class ScriptedPolicy : public AbrPolicy {
 public:
  explicit ScriptedPolicy(std::vector<AbrDecision> script) : script_(std::move(script)) {}
  const char* name() const override { return "scripted"; }
  AbrDecision decide(const AbrObservation& obs) override {
    last_obs_ = obs;
    return script_[obs.next_chunk % script_.size()];
  }
  AbrObservation last_obs_;

 private:
  std::vector<AbrDecision> script_;
};

class PlayerTest : public ::testing::Test {
 protected:
  media::EncodedVideo video_ =
      media::Encoder().encode(media::SourceVideo::generate("P", media::Genre::kSports, 120));
  net::ThroughputTrace fast_ = net::ThroughputTrace("fast", std::vector<double>(600, 8000.0));
  net::ThroughputTrace slow_ = net::ThroughputTrace("slow", std::vector<double>(600, 400.0));
  Player player_;
};

TEST_F(PlayerTest, AllChunksDownloaded) {
  ScriptedPolicy policy({{2, 0.0}});
  SessionResult s = player_.stream(video_, fast_, policy);
  EXPECT_EQ(s.chunks().size(), video_.num_chunks());
  for (size_t i = 0; i < s.chunks().size(); ++i) {
    EXPECT_EQ(s.chunks()[i].index, i);
    EXPECT_EQ(s.chunks()[i].level, 2u);
  }
}

TEST_F(PlayerTest, FastLinkNoRebuffering) {
  ScriptedPolicy policy({{4, 0.0}});
  SessionResult s = player_.stream(video_, fast_, policy);
  EXPECT_DOUBLE_EQ(s.total_rebuffer_s(), 0.0);
  EXPECT_GT(s.startup_delay_s(), 0.0);
}

TEST_F(PlayerTest, SlowLinkTopBitrateRebuffers) {
  // 2850 Kbps chunks over a 400 Kbps link must stall.
  ScriptedPolicy policy({{4, 0.0}});
  SessionResult s = player_.stream(video_, slow_, policy);
  EXPECT_GT(s.total_rebuffer_s(), 10.0);
}

TEST_F(PlayerTest, LowestBitrateAvoidsStallsOnSlowLink) {
  // 300 Kbps chunks over 400 Kbps: sustainable after startup.
  ScriptedPolicy policy({{0, 0.0}});
  SessionResult s = player_.stream(video_, slow_, policy);
  EXPECT_LT(s.total_rebuffer_s(), 1.0);
}

TEST_F(PlayerTest, BufferInvariants) {
  PlayerConfig config;
  ScriptedPolicy policy({{3, 0.0}, {1, 0.0}, {4, 0.0}});
  SessionResult s = player_.stream(video_, fast_, policy);
  for (const auto& c : s.chunks()) {
    EXPECT_GE(c.buffer_after_s, 0.0);
    EXPECT_LE(c.buffer_after_s, config.max_buffer_s + 1e-9);
    EXPECT_GE(c.rebuffer_s, 0.0);
    EXPECT_GE(c.download_time_s, 0.0);
  }
}

TEST_F(PlayerTest, WallClockIsMonotone) {
  ScriptedPolicy policy({{2, 0.0}});
  SessionResult s = player_.stream(video_, slow_, policy);
  for (size_t i = 1; i < s.chunks().size(); ++i) {
    EXPECT_GE(s.chunks()[i].download_start_s,
              s.chunks()[i - 1].download_start_s +
                  s.chunks()[i - 1].download_time_s - 1e-9);
  }
}

TEST_F(PlayerTest, ScheduledRebufferCreditsBufferAndCountsAsStall) {
  ScriptedPolicy no_stall({{2, 0.0}});
  ScriptedPolicy with_stall({{2, 0.0}, {2, 1.5}, {2, 0.0}});
  SessionResult a = player_.stream(video_, fast_, no_stall);
  SessionResult b = player_.stream(video_, fast_, with_stall);
  // Scheduled stalls appear in the stall accounting,
  double scheduled_total = 0.0;
  for (const auto& c : b.chunks()) scheduled_total += c.scheduled_rebuffer_s;
  EXPECT_GT(scheduled_total, 0.0);
  EXPECT_GE(b.total_rebuffer_s(), scheduled_total - 1e-9);
  (void)a;
}

TEST_F(PlayerTest, ScheduledRebufferOnFirstChunkBecomesStartup) {
  ScriptedPolicy policy({{2, 2.0}});
  SessionResult s = player_.stream(video_, fast_, policy);
  EXPECT_DOUBLE_EQ(s.chunks()[0].scheduled_rebuffer_s, 0.0);
  EXPECT_DOUBLE_EQ(s.chunks()[0].rebuffer_s, 0.0);
  EXPECT_GT(s.startup_delay_s(), 2.0);  // download + scheduled wait
}

// Every decision sees every remaining weight, from its own chunk's on.
TEST_F(PlayerTest, WeightsSlicedIntoObservations) {
  std::vector<double> weights(video_.num_chunks());
  for (size_t i = 0; i < weights.size(); ++i) weights[i] = static_cast<double>(i);
  struct Probe : AbrPolicy {
    const std::vector<double>* weights = nullptr;
    size_t decisions = 0;
    const char* name() const override { return "probe"; }
    AbrDecision decide(const AbrObservation& obs) override {
      ++decisions;
      EXPECT_EQ(obs.future_weights.size(), weights->size() - obs.next_chunk);
      for (size_t k = 0; k < obs.future_weights.size(); ++k) {
        EXPECT_EQ(obs.future_weights[k], (*weights)[obs.next_chunk + k]);
      }
      return {1, 0.0};
    }
  } probe;
  probe.weights = &weights;
  player_.stream(video_, fast_, probe, weights);
  EXPECT_EQ(probe.decisions, video_.num_chunks());
}

TEST_F(PlayerTest, NoWeightsMeansEmptySlice) {
  ScriptedPolicy policy({{1, 0.0}});
  player_.stream(video_, fast_, policy);
  EXPECT_TRUE(policy.last_obs_.future_weights.empty());
}

TEST_F(PlayerTest, WrongWeightVectorSizeThrows) {
  std::vector<double> weights(3, 1.0);
  ScriptedPolicy policy({{1, 0.0}});
  EXPECT_THROW(player_.stream(video_, fast_, policy, weights), std::runtime_error);
}

TEST_F(PlayerTest, OutOfRangeLevelIsClamped) {
  ScriptedPolicy policy({{99, 0.0}});
  SessionResult s = player_.stream(video_, fast_, policy);
  for (const auto& c : s.chunks()) EXPECT_EQ(c.level, 4u);
}

// Property sweep over traces: invariants hold for every trace in the test
// set under a mixed scripted policy.
class PlayerTraceSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PlayerTraceSweep, InvariantsAcrossTraces) {
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("Sweep", media::Genre::kGaming, 120));
  auto traces = net::TraceGenerator::test_set(400.0);
  ScriptedPolicy policy({{0, 0.0}, {2, 0.0}, {4, 0.0}, {1, 1.0}});
  SessionResult s = Player().stream(video, traces[GetParam()], policy);
  EXPECT_EQ(s.chunks().size(), video.num_chunks());
  double total_sched = 0.0;
  for (const auto& c : s.chunks()) {
    EXPECT_GE(c.buffer_after_s, 0.0);
    EXPECT_LE(c.buffer_after_s, PlayerConfig().max_buffer_s + 1e-9);
    EXPECT_GE(c.rebuffer_s, c.scheduled_rebuffer_s - 1e-9);
    total_sched += c.scheduled_rebuffer_s;
  }
  EXPECT_GE(s.total_rebuffer_s(), total_sched - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Traces, PlayerTraceSweep,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8, 9));

}  // namespace
}  // namespace sensei::sim
