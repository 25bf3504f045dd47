// Whittle-index ABR gates (abr/whittle.h):
//  - config validation at construction;
//  - indexability: the closed-form rung index is monotone nondecreasing in
//    the buffer level, for every rung (the property that makes an
//    index-argmax policy well-posed);
//  - decide() is the first strict argmax of level_index over the rungs
//    (ties keep the lowest rung, a NaN index at rung 0 is kept);
//  - decide() behavior at the extremes: a rich buffer with a healthy
//    forecast selects the top rung, a starved buffer the floor;
//  - degenerate single-rung ladders stream to completion at level 0.
#include "abr/whittle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "media/dataset.h"
#include "net/trace_gen.h"
#include "sim/player.h"
#include "util/rng.h"

namespace sensei::abr {
namespace {

media::EncodedVideo test_video(double seconds = 120.0) {
  return media::Encoder().encode(
      media::SourceVideo::generate("WhittleVid", media::Genre::kSports, seconds));
}

TEST(Whittle, RejectsNonsenseConfigs) {
  WhittleConfig bad;
  bad.safety = 0.0;
  EXPECT_THROW(WhittleIndexAbr{bad}, std::invalid_argument);
  bad = WhittleConfig();
  bad.safety = -0.5;
  EXPECT_THROW(WhittleIndexAbr{bad}, std::invalid_argument);
  bad = WhittleConfig();
  bad.headroom = -0.1;
  EXPECT_THROW(WhittleIndexAbr{bad}, std::invalid_argument);
  bad = WhittleConfig();
  bad.drain_penalty = -1.0;
  EXPECT_THROW(WhittleIndexAbr{bad}, std::invalid_argument);
  EXPECT_NO_THROW(WhittleIndexAbr{WhittleConfig()});
}

TEST(Whittle, IndexIsMonotoneNondecreasingInBuffer) {
  media::EncodedVideo video = test_video();
  WhittleIndexAbr abr;
  abr.begin_session(video);

  sim::AbrObservation obs;
  obs.video = &video;
  obs.num_chunks = video.num_chunks();

  // Every rung, several chunk/last-level contexts, two budgets: more buffer
  // never lowers a rung's index (both max(0,.) risk terms are nonincreasing
  // in b and everything else is constant in b).
  for (size_t chunk : {size_t{0}, size_t{1}, size_t{7}}) {
    obs.next_chunk = chunk;
    for (size_t last : {size_t{0}, video.ladder().level_count() - 1}) {
      obs.last_level = last;
      for (double budget_kbps : {400.0, 2500.0}) {
        for (size_t level = 0; level < video.ladder().level_count(); ++level) {
          double prev = abr.level_index(obs, level, 0.0, budget_kbps);
          for (double buffer_s = 0.25; buffer_s <= 40.0; buffer_s += 0.25) {
            double index = abr.level_index(obs, level, buffer_s, budget_kbps);
            ASSERT_GE(index, prev) << "level " << level << " buffer " << buffer_s
                                   << " budget " << budget_kbps;
            prev = index;
          }
        }
      }
    }
  }
}

// decide() against the first strict argmax of level_index at the budget it
// plans with, on a seeded grid of chunks, previous rungs, buffers and
// forecasts. A switch penalty of 1 makes every rung at or above the previous
// quality score the previous quality (ties), and an infinite drain penalty
// makes a rung without shortfall score inf * 0 = NaN (at rung 0, kept).
TEST(Whittle, DecideIsFirstStrictArgmaxOfLevelIndex) {
  media::EncodedVideo video = test_video();
  const size_t levels = video.ladder().level_count();
  std::vector<WhittleConfig> configs(3);
  configs[1].chunk.beta_switch = 1.0;
  configs[2].drain_penalty = std::numeric_limits<double>::infinity();
  util::Rng rng(0x3417713);
  size_t ties = 0, nan_first = 0;
  for (const WhittleConfig& cfg : configs) {
    for (int i = 0; i < 400; ++i) {
      sim::AbrObservation obs;
      obs.video = &video;
      obs.num_chunks = video.num_chunks();
      obs.next_chunk =
          static_cast<size_t>(rng.uniform_int(0, static_cast<int>(obs.num_chunks) - 1));
      obs.last_level = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(levels) - 1));
      obs.buffer_s = rng.uniform(0.0, 40.0);
      obs.last_throughput_kbps = rng.uniform(100.0, 9000.0);

      WhittleIndexAbr abr(cfg);
      abr.begin_session(video);
      net::HarmonicMeanPredictor forecast(cfg.window);
      forecast.observe(obs.last_throughput_kbps);
      const double budget = cfg.safety * forecast.predict_kbps();
      size_t want = 0;
      double best = abr.level_index(obs, 0, obs.buffer_s, budget);
      if (std::isnan(best)) ++nan_first;
      for (size_t l = 1; l < levels; ++l) {
        const double v = abr.level_index(obs, l, obs.buffer_s, budget);
        if (v == best) ++ties;
        if (v > best) {
          best = v;
          want = l;
        }
      }
      ASSERT_EQ(abr.decide(obs).level, want) << "case " << i;
    }
  }
  EXPECT_GT(ties, 0u);
  EXPECT_GT(nan_first, 0u);
}

TEST(Whittle, RichBufferSelectsTopRungStarvedBufferTheFloor) {
  media::EncodedVideo video = test_video();
  const size_t top = video.ladder().level_count() - 1;

  // Rich: deep buffer, healthy forecast, already at the top rung — every
  // risk term is zero, so the argmax is pure visual quality: the top rung.
  WhittleIndexAbr rich;
  rich.begin_session(video);
  sim::AbrObservation obs;
  obs.video = &video;
  obs.num_chunks = video.num_chunks();
  obs.next_chunk = 1;
  obs.last_level = top;
  obs.last_throughput_kbps = 6000.0;
  obs.buffer_s = 1000.0;
  EXPECT_EQ(rich.decide(obs).level, top);

  // Starved: empty buffer and a collapsed forecast — stall and drain risk
  // grow with rung size, so the floor wins.
  WhittleIndexAbr starved;
  starved.begin_session(video);
  obs.last_level = 0;
  obs.last_throughput_kbps = 120.0;
  obs.buffer_s = 0.0;
  EXPECT_EQ(starved.decide(obs).level, 0u);
}

TEST(Whittle, SingleRungLadderStreamsToCompletionAtLevelZero) {
  media::EncodedVideo video = media::Encoder(media::BitrateLadder({500.0}))
                                  .encode(media::SourceVideo::generate(
                                      "WhittleMono", media::Genre::kNature, 80.0));
  ASSERT_EQ(video.ladder().level_count(), 1u);

  WhittleIndexAbr abr;
  net::ThroughputTrace trace = net::TraceGenerator::cellular("whittle-cell", 1200, 500.0, 9);
  sim::SessionResult session = sim::Player().stream(video, trace, abr);
  ASSERT_EQ(session.chunks().size(), video.num_chunks());
  for (const auto& chunk : session.chunks()) EXPECT_EQ(chunk.level, 0u);
}

TEST(Whittle, StreamsAFullSessionWithinTheLadder) {
  media::EncodedVideo video = test_video();
  WhittleIndexAbr abr;
  net::ThroughputTrace trace = net::TraceGenerator::cellular("whittle-run", 1600, 600.0, 13);
  sim::SessionResult session = sim::Player().stream(video, trace, abr);
  ASSERT_EQ(session.chunks().size(), video.num_chunks());
  bool above_floor = false;
  for (const auto& chunk : session.chunks()) {
    ASSERT_LT(chunk.level, video.ladder().level_count());
    if (chunk.level > 0) above_floor = true;
  }
  // A ~1.6 Mbps cell comfortably funds rungs above 300 Kbps.
  EXPECT_TRUE(above_floor);
}

}  // namespace
}  // namespace sensei::abr
