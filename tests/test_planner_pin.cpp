// Cross-commit pins for the planners' values and decisions. A seeded grid
// of lookahead queries — scenario counts 1..19, horizons 1..5, with and
// without sensitivity weights, rebuffer options {0} and {0, 1, 2}, two
// chunk-quality parameter sets, buffers from empty to the cap and positions
// up to the video's tail — is planned by the exact DP, by the vi planner on
// its per-decide arena and by the vi planner on a shared PlanBatch (twice,
// so the second pass reads warm shared tables). Every PlanResult field is
// written in exact hex-float form and each planner's rows are reduced to one
// FNV-1a digest that is pinned, so any change to a planner's arithmetic that
// moves one bit of one value fails here. The in-process identity suites
// (test_planner_equivalence, test_planner_accuracy) compare two planners of
// one build; this file compares a build with the ones before it. On a
// mismatch the test prints the first rows, so a deliberate re-pin can diff
// them.
#include "abr/planner.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "media/dataset.h"
#include "media/encoder.h"
#include "util/rng.h"

namespace sensei::abr {
namespace {

struct PinCase {
  sim::AbrObservation obs;
  std::vector<net::ThroughputScenario> scenarios;
  std::vector<double> rebuffer_options;
  size_t horizon = 0;
  bool use_weights = false;
  qoe::ChunkQualityParams chunk;
};

// Four queries per (scenario count, horizon, weights, rebuffer set), every
// other one under harsher chunk-quality parameters.
std::vector<PinCase> pin_grid(const media::EncodedVideo& video) {
  util::Rng rng(0x91a77e4);
  qoe::ChunkQualityParams harsh;
  harsh.beta_rebuf = 2.0;
  harsh.rebuf_saturation = 0.1;
  harsh.beta_switch = 0.9;
  harsh.floor = -1.0;
  const int levels = static_cast<int>(video.ladder().level_count());
  const int chunks = static_cast<int>(video.num_chunks());
  std::vector<PinCase> grid;
  for (size_t count = 1; count <= 19; ++count) {
    for (size_t horizon = 1; horizon <= 5; ++horizon) {
      for (bool use_weights : {false, true}) {
        for (bool stall_actions : {false, true}) {
          for (int rep = 0; rep < 4; ++rep) {
            PinCase c;
            c.horizon = horizon;
            c.use_weights = use_weights;
            c.rebuffer_options =
                stall_actions ? std::vector<double>{0.0, 1.0, 2.0} : std::vector<double>{0.0};
            if (rep % 2 == 1) c.chunk = harsh;
            c.obs.video = &video;
            c.obs.num_chunks = video.num_chunks();
            c.obs.next_chunk = static_cast<size_t>(rng.uniform_int(0, chunks - 1));
            c.obs.last_level = static_cast<size_t>(rng.uniform_int(0, levels - 1));
            c.obs.buffer_s = rng.chance(0.1) ? 0.0 : rng.uniform(0.0, 30.0);
            double total = 0.0;
            for (size_t s = 0; s < count; ++s) {
              const double p = rng.uniform(0.05, 1.0);
              c.scenarios.push_back({rng.uniform(150.0, 9000.0), p});
              total += p;
            }
            for (auto& s : c.scenarios) s.probability /= total;
            if (use_weights) {
              for (size_t d = 0; d < horizon; ++d) {
                c.obs.future_weights.push_back(rng.uniform(0.3, 3.0));
              }
            }
            grid.push_back(std::move(c));
          }
        }
      }
    }
  }
  return grid;
}

PlanQuery make_query(const PinCase& c) {
  PlanQuery q;
  q.obs = &c.obs;
  q.scenarios = c.scenarios.data();
  q.num_scenarios = c.scenarios.size();
  q.horizon = c.horizon;
  q.rebuffer_options = c.rebuffer_options.data();
  q.num_rebuffer_options = c.rebuffer_options.size();
  q.use_weights = c.use_weights;
  q.weight_shrinkage = 0.8;
  q.chunk = c.chunk;
  q.prev_visual_quality =
      c.obs.next_chunk > 0
          ? c.obs.video->visual_quality(c.obs.next_chunk - 1, c.obs.last_level)
          : c.obs.video->visual_quality(0, 0);
  return q;
}

std::string result_row(const PlanResult& r) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%zu %a %a %zu %a\n", r.best_level, r.best_rebuffer_s,
                r.best_value, r.nostall_level, r.nostall_value);
  return buf;
}

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

class PlannerPin : public ::testing::Test {
 protected:
  // Every query of the grid through `planner`, `passes` times in order.
  std::string rows(Planner& planner, int passes = 1) const {
    std::string out;
    for (int pass = 0; pass < passes; ++pass) {
      for (const PinCase& c : grid_) out += result_row(planner.plan(make_query(c)));
    }
    return out;
  }

  media::EncodedVideo video_ = media::Encoder().encode(
      media::SourceVideo::generate("PlannerPin", media::Genre::kSports, 40));
  std::vector<PinCase> grid_ = pin_grid(video_);
};

TEST_F(PlannerPin, DpMatchesPinnedDigest) {
  DpPlanner dp;
  const std::string text = rows(dp);
  EXPECT_EQ(fnv1a_hex(text), "684c155d9d7658c6") << text.substr(0, 2000);
}

TEST_F(PlannerPin, UnbatchedViMatchesPinnedDigest) {
  ViPlanner vi;
  const std::string text = rows(vi);
  EXPECT_EQ(fnv1a_hex(text), "8d30961423b0f703") << text.substr(0, 2000);
}

TEST_F(PlannerPin, BatchedViMatchesPinnedDigest) {
  PlanBatch batch;
  ViPlanner vi;
  vi.set_batch(&batch);
  const std::string text = rows(vi, 2);
  EXPECT_GT(batch.num_vi_tables(), 0u);
  EXPECT_EQ(fnv1a_hex(text), "fda83b9b76885b41") << text.substr(0, 2000);
}

}  // namespace
}  // namespace sensei::abr
