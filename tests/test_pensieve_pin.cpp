// Cross-commit pins for Pensieve's sessions. The pensieve and
// sensei-pensieve nets — untrained from their registry seeds, and after a
// tiny PensieveTrainer run (behaviour-cloning and policy-gradient episodes)
// — stream a small grid of videos and traces, with and without sensitivity
// weights, on a plain player and on one with timeouts and retries armed.
// Every ChunkRecord field is written in exact hex-float form and each net's
// rows are reduced to one FNV-1a digest that is pinned, so any change to
// what the policy sees (its state features, its throughput taps) or to the
// trainer that moves one bit of one record fails here. On a mismatch the
// test prints the first rows, so a deliberate re-pin can diff them.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "abr/pensieve.h"
#include "abr/registry.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "sim/player.h"
#include "util/rng.h"

namespace sensei::abr {
namespace {

std::string fnv1a_hex(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

std::string session_rows(const sim::SessionResult& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "session %s %s %d %d %zu %a\n", s.video_name().c_str(),
                s.trace_name().c_str(), static_cast<int>(s.outcome()),
                static_cast<int>(s.outcome_cause()), s.failed_chunk(), s.startup_delay_s());
  std::string out = buf;
  for (const sim::ChunkRecord& c : s.chunks()) {
    std::snprintf(buf, sizeof(buf), "%zu %zu %a %a %a %a %a %a %a %a\n", c.index, c.level,
                  c.bitrate_kbps, c.size_bytes, c.download_start_s, c.download_time_s,
                  c.rebuffer_s, c.scheduled_rebuffer_s, c.buffer_after_s, c.visual_quality);
    out += buf;
  }
  return out;
}

class PensievePin : public ::testing::Test {
 protected:
  PensievePin() {
    videos_.push_back(media::Encoder().encode(
        media::SourceVideo::generate("PensievePinA", media::Genre::kSports, 60)));
    videos_.push_back(media::Encoder().encode(
        media::SourceVideo::generate("PensievePinB", media::Genre::kAnimation, 80)));
    traces_.push_back(net::TraceGenerator::cellular("pin-cell", 900, 400.0, 17));
    traces_.push_back(net::TraceGenerator::broadband("pin-bb", 2600, 400.0, 18));
    // Dead seconds between bursts: stalls, and goodputs far from the mean.
    std::vector<double> gappy;
    for (int k = 0; k < 200; ++k) gappy.push_back(k % 5 == 4 ? 0.0 : 1400.0 + 90.0 * (k % 7));
    traces_.emplace_back("pin-gappy", gappy, 1.0);

    util::Rng rng(0x9e45);
    for (const media::EncodedVideo& video : videos_) {
      std::vector<double> w;
      for (size_t i = 0; i < video.num_chunks(); ++i) w.push_back(rng.uniform(0.3, 3.0));
      weights_.push_back(std::move(w));
    }
    resilient_.resilience.request_timeout_s = 5.0;
    resilient_.resilience.max_retries = 2;
    resilient_.resilience.backoff_jitter_frac = 0.25;
    resilient_.resilience.jitter_seed = 7;
  }

  // Every (player, video, trace) session, unweighted then weighted.
  std::string rows(sim::AbrPolicy& policy) const {
    const std::vector<double> none;
    std::string out;
    for (const sim::PlayerConfig& config : {sim::PlayerConfig(), resilient_}) {
      const sim::Player player(config);
      for (size_t v = 0; v < videos_.size(); ++v) {
        for (const net::ThroughputTrace& trace : traces_) {
          out += session_rows(player.stream(videos_[v], trace, policy, none));
          out += session_rows(player.stream(videos_[v], trace, policy, weights_[v]));
        }
      }
    }
    return out;
  }

  // A few behaviour-cloning and policy-gradient episodes over the grid.
  void train(PensieveAbr& policy) const {
    PensieveTrainer::Options options;
    options.bc_episodes = 3;
    options.episodes = 4;
    options.seed = 0x7a1;
    const std::vector<std::vector<double>> none;
    PensieveTrainer::train(policy, videos_, traces_,
                           policy.config().sensei_mode ? weights_ : none, options);
  }

  static std::unique_ptr<PensieveAbr> make(const char* spec) {
    std::unique_ptr<sim::AbrPolicy> policy = make_policy(spec);
    return std::unique_ptr<PensieveAbr>(static_cast<PensieveAbr*>(policy.release()));
  }

  std::vector<media::EncodedVideo> videos_;
  std::vector<net::ThroughputTrace> traces_;
  std::vector<std::vector<double>> weights_;
  sim::PlayerConfig resilient_;
};

TEST_F(PensievePin, UntrainedPensieveMatchesPinnedDigest) {
  auto policy = make("pensieve");
  const std::string text = rows(*policy);
  EXPECT_EQ(fnv1a_hex(text), "8c4225dd07112d09") << text.substr(0, 2000);
}

TEST_F(PensievePin, UntrainedSenseiPensieveMatchesPinnedDigest) {
  auto policy = make("sensei-pensieve");
  const std::string text = rows(*policy);
  EXPECT_EQ(fnv1a_hex(text), "4795c8a3ffcb61cf") << text.substr(0, 2000);
}

TEST_F(PensievePin, TrainedPensieveMatchesPinnedDigest) {
  auto policy = make("pensieve");
  train(*policy);
  const std::string text = rows(*policy);
  EXPECT_EQ(fnv1a_hex(text), "e56c2075a8740cab") << text.substr(0, 2000);
}

TEST_F(PensievePin, TrainedSenseiPensieveMatchesPinnedDigest) {
  auto policy = make("sensei-pensieve");
  train(*policy);
  const std::string text = rows(*policy);
  EXPECT_EQ(fnv1a_hex(text), "0a545d729997ce07") << text.substr(0, 2000);
}

}  // namespace
}  // namespace sensei::abr
