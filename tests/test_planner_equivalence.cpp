// Equivalence gate for the MPC planner swap: the branch-and-bound DpPlanner
// must reproduce the reference exhaustive recursion
// (tests/oracles/exhaustive_planner.h) exactly — same (level,
// scheduled_rebuffer) decision and bit-identical value — across a seeded
// grid of observations, weights, and scenario sets, and whole experiment
// grids must stay bit-identical before/after the swap at any thread count.
#include "abr/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>

#include "abr/fugu.h"
#include "core/experiments.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "oracles/exhaustive_planner.h"
#include "sim/player.h"
#include "util/rng.h"

namespace sensei::abr {
namespace {

class PlannerEquivalence : public ::testing::Test {
 protected:
  media::EncodedVideo video_ = media::Encoder().encode(
      media::SourceVideo::generate("PlannerEq", media::Genre::kSports, 120));
};

struct GridCase {
  sim::AbrObservation obs;
  // Viewed by obs.future_weights; a move keeps the buffer, and the view.
  std::vector<double> weights;
  std::vector<net::ThroughputScenario> scenarios;
  std::vector<double> rebuffer_options;
  bool use_weights = false;
  size_t horizon = 5;
};

// What a seeded grid draws from: horizons, the observed buffer range, and
// the range of forecast centers. The defaults span the whole ladder.
struct GridRanges {
  std::vector<size_t> horizons = {1, 2, 3, 4, 5};
  double max_buffer_s = 28.0;
  double min_kbps = 250.0;
  double max_kbps = 6500.0;
};

// Tight links: forecasts centered at or below the lowest rung (300 kbps)
// with near-empty buffers, so nearly every plan stalls.
GridRanges tight_ranges() {
  GridRanges tight;
  tight.horizons = {3, 4, 5};
  tight.max_buffer_s = 6.0;
  tight.min_kbps = 60.0;
  tight.max_kbps = 400.0;
  return tight;
}

// One case at `next_chunk`: buffer, last level, forecast and weights drawn
// from `ranges`.
GridCase draw_case(util::Rng& rng, const media::EncodedVideo& video, const GridRanges& ranges,
                   size_t horizon, bool use_weights, bool stall_actions, size_t next_chunk) {
  GridCase c;
  c.horizon = horizon;
  c.use_weights = use_weights;
  c.rebuffer_options =
      stall_actions ? std::vector<double>{0.0, 1.0, 2.0} : std::vector<double>{0.0};
  c.obs.video = &video;
  c.obs.num_chunks = video.num_chunks();
  c.obs.next_chunk = next_chunk;
  c.obs.buffer_s = rng.uniform(0.0, ranges.max_buffer_s);
  c.obs.last_level = static_cast<size_t>(
      rng.uniform_int(0, static_cast<int>(video.ladder().level_count()) - 1));
  size_t num_scen = rng.chance(0.5) ? 3 : 8;
  c.scenarios = net::triangular_scenarios(
      num_scen, rng.uniform(ranges.min_kbps, ranges.max_kbps), rng.uniform(0.05, 0.8));
  if (use_weights) {
    for (size_t d = 0; d < horizon; ++d) c.weights.push_back(rng.uniform(0.5, 2.8));
    c.obs.future_weights = {c.weights.data(), c.weights.size()};
  }
  return c;
}

// Seeded grid spanning buffers, positions (incl. end-of-video), levels,
// scenario counts/spreads, weights, and both rebuffer-action sets.
std::vector<GridCase> seeded_grid(const media::EncodedVideo& video, uint64_t seed,
                                  size_t cases_per_combo, const GridRanges& ranges = {}) {
  util::Rng rng(seed);
  std::vector<GridCase> grid;
  for (size_t horizon : ranges.horizons) {
    for (bool use_weights : {false, true}) {
      for (bool stall_actions : {false, true}) {
        for (size_t i = 0; i < cases_per_combo; ++i) {
          // Bias a few cases to the tail so the chunk-exhaustion leaf fires.
          const size_t next_chunk =
              rng.chance(0.25)
                  ? video.num_chunks() - 1 - static_cast<size_t>(rng.uniform_int(0, 2))
                  : static_cast<size_t>(
                        rng.uniform_int(0, static_cast<int>(video.num_chunks()) - 1));
          grid.push_back(draw_case(rng, video, ranges, horizon, use_weights, stall_actions,
                                   next_chunk));
        }
      }
    }
  }
  return grid;
}

PlanQuery make_query(const GridCase& c) {
  PlanQuery q;
  q.obs = &c.obs;
  q.scenarios = c.scenarios.data();
  q.num_scenarios = c.scenarios.size();
  q.horizon = c.horizon;
  q.rebuffer_options = c.rebuffer_options.data();
  q.num_rebuffer_options = c.rebuffer_options.size();
  q.use_weights = c.use_weights;
  q.weight_shrinkage = 0.8;
  double prev_vq = c.obs.next_chunk > 0
                       ? c.obs.video->visual_quality(c.obs.next_chunk - 1, c.obs.last_level)
                       : c.obs.video->visual_quality(0, 0);
  q.prev_visual_quality = prev_vq;
  return q;
}

// Every PlanResult field, bit for bit.
void expect_same_plan(const PlanResult& a, const PlanResult& b) {
  EXPECT_EQ(a.best_level, b.best_level);
  EXPECT_EQ(a.best_rebuffer_s, b.best_rebuffer_s);
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.nostall_level, b.nostall_level);
  EXPECT_EQ(a.nostall_value, b.nostall_value);
}

// The exact DP must return the reference's decision and value bit for bit
// on every case of `grid`.
void expect_dp_matches_exhaustive(const std::vector<GridCase>& grid) {
  oracles::ExhaustivePlanner reference;
  DpPlanner dp;
  for (size_t i = 0; i < grid.size(); ++i) {
    PlanQuery q = make_query(grid[i]);
    PlanResult a = reference.plan(q);
    PlanResult b = dp.plan(q);
    SCOPED_TRACE("case " + std::to_string(i) + " horizon " +
                 std::to_string(grid[i].horizon));
    expect_same_plan(a, b);
  }
}

TEST_F(PlannerEquivalence, DpMatchesExhaustiveBitIdenticalOnSeededGrid) {
  auto grid = seeded_grid(video_, 0xfeed5eed, 6);
  ASSERT_FALSE(grid.empty());
  expect_dp_matches_exhaustive(grid);
}

// Past the paper's horizon 5, where the exhaustive tree
// ((levels x rebuffer_options)^horizon leaves) is largest and the DP prunes
// the most: 48 cases at each of horizons 6 and 7, bit for bit.
TEST_F(PlannerEquivalence, DpMatchesExhaustiveAtHorizonsSixAndSeven) {
  GridRanges long_horizons;
  long_horizons.horizons = {6, 7};
  auto grid = seeded_grid(video_, 0x5e15e1, 12, long_horizons);
  ASSERT_EQ(grid.size(), 96u);
  expect_dp_matches_exhaustive(grid);
}

// On tight links chunk quality sits at its floor, and two prefixes reaching
// one state can differ by an ulp yet round to the same leaf value: skipping
// the smaller prefix as dominated loses the reference's lowest-rank
// tie-break. The DP's transposition cache fails this grid without any one of
// its domination conditions: separable values, no-stall coverage, or the
// rank order.
std::vector<GridCase> tight_grid(const media::EncodedVideo& video) {
  return seeded_grid(video, 0x71647411, 200, tight_ranges());
}

TEST_F(PlannerEquivalence, DpMatchesExhaustiveBitIdenticalOnTightLinks) {
  auto grid = tight_grid(video_);
  ASSERT_EQ(grid.size(), 2400u);
  expect_dp_matches_exhaustive(grid);
}

// The bound keeps a scratch row per scenario: tight-link cases with one,
// two and many scenarios (past any small fixed-size row), short horizons,
// both rebuffer sets.
TEST_F(PlannerEquivalence, DpMatchesExhaustiveAcrossScenarioCounts) {
  util::Rng rng(0x5ce7a210);
  const GridRanges tight = tight_ranges();
  std::vector<GridCase> grid;
  for (size_t num_scen : {1, 2, 64, 80}) {
    for (size_t horizon : {1, 2, 3}) {
      for (bool stall_actions : {false, true}) {
        for (size_t i = 0; i < 6; ++i) {
          const size_t next_chunk = static_cast<size_t>(
              rng.uniform_int(0, static_cast<int>(video_.num_chunks()) - 1));
          GridCase c = draw_case(rng, video_, tight, horizon, rng.chance(0.5), stall_actions,
                                 next_chunk);
          c.scenarios = net::triangular_scenarios(
              num_scen, rng.uniform(tight.min_kbps, tight.max_kbps), rng.uniform(0.05, 0.8));
          grid.push_back(std::move(c));
        }
      }
    }
  }
  expect_dp_matches_exhaustive(grid);
}

// Work budget on the tight-link grid. A bound that stays admissible but
// gets looser changes no answer, so the equivalence tests cannot see it;
// the number of scenario rows the search steps can. Re-pin only downward:
// a rise means the pruning got weaker.
TEST_F(PlannerEquivalence, DpSearchWorkOnTightLinksWithinBudget) {
  DpPlanner dp;
  for (const GridCase& c : tight_grid(video_)) dp.plan(make_query(c));
  EXPECT_LE(dp.search_steps(), 161224u);
}

// Consecutive chunks of one seeded session-like walk per combination of
// weights and rebuffer set: the buffer, last level and forecast change at
// every step, the horizon only between walks, and every walk runs into the
// end of the video so the lookahead shrinks.
std::vector<GridCase> seeded_walks(const media::EncodedVideo& video, uint64_t seed,
                                   size_t walks_per_combo, const GridRanges& ranges) {
  util::Rng rng(seed);
  std::vector<GridCase> walks;
  const size_t chunks = video.num_chunks();
  for (bool use_weights : {false, true}) {
    for (bool stall_actions : {false, true}) {
      for (size_t w = 0; w < walks_per_combo; ++w) {
        const size_t horizon = ranges.horizons[static_cast<size_t>(
            rng.uniform_int(0, static_cast<int>(ranges.horizons.size()) - 1))];
        const size_t start = chunks - 12 - static_cast<size_t>(rng.uniform_int(0, 8));
        for (size_t chunk = start; chunk < chunks; ++chunk) {
          walks.push_back(
              draw_case(rng, video, ranges, horizon, use_weights, stall_actions, chunk));
        }
      }
    }
  }
  return walks;
}

// A DpPlanner warm-starts each decision from its previous best path, so its
// answer must not depend on what it planned before: one planner walked over
// consecutive chunks, and planners whose previous query was a different
// plan for chunk n - 1, must each match a fresh planner bit for bit.
TEST_F(PlannerEquivalence, DpAnswerIndependentOfPlanHistory) {
  const GridRanges tight = tight_ranges();
  const GridRanges wide{};
  size_t checked = 0;
  for (const GridRanges* ranges : {&tight, &wide}) {
    const auto walks = seeded_walks(video_, ranges == &tight ? 0x3a1c0 : 0x3a1c1, 6, *ranges);
    DpPlanner walker;
    for (size_t i = 0; i < walks.size(); ++i) {
      const PlanQuery q = make_query(walks[i]);
      DpPlanner fresh;
      const PlanResult expected = fresh.plan(q);
      SCOPED_TRACE("walk case " + std::to_string(i) + (ranges == &tight ? " tight" : " wide"));
      expect_same_plan(expected, walker.plan(q));
      ++checked;
      if (walks[i].obs.next_chunk == 0) continue;

      // Poison the warm path: plan chunk n - 1 with another forecast, buffer
      // or rebuffer set first.
      for (int poison = 0; poison < 3; ++poison) {
        GridCase prior = walks[i];
        prior.obs.next_chunk -= 1;
        if (poison == 0) prior.scenarios = net::triangular_scenarios(5, 4000.0, 0.2);
        if (poison == 1) prior.obs.buffer_s = 25.0 - prior.obs.buffer_s;
        if (poison == 2) {
          prior.rebuffer_options = prior.rebuffer_options.size() == 1
                                       ? std::vector<double>{0.0, 1.0, 2.0}
                                       : std::vector<double>{0.0};
        }
        DpPlanner poisoned;
        poisoned.plan(make_query(prior));
        SCOPED_TRACE("poison " + std::to_string(poison));
        expect_same_plan(expected, poisoned.plan(q));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1500u);
}

TEST_F(PlannerEquivalence, DpValueMonotonicInInitialBuffer) {
  // More starting buffer can only help: the optimal lookahead value must be
  // nondecreasing in the observed buffer level, all else equal.
  DpPlanner dp;
  util::Rng rng(0xb0ffe4);
  for (size_t trial = 0; trial < 20; ++trial) {
    GridCase c;
    c.horizon = 5;
    c.rebuffer_options = std::vector<double>{0.0, 1.0, 2.0};
    c.obs.video = &video_;
    c.obs.num_chunks = video_.num_chunks();
    c.obs.next_chunk = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int>(video_.num_chunks()) - 6));
    c.obs.last_level = static_cast<size_t>(rng.uniform_int(0, 4));
    c.scenarios = net::triangular_scenarios(5, rng.uniform(300.0, 5000.0), rng.uniform(0.1, 0.7));
    double prev = -1e18;
    for (double buffer = 0.0; buffer <= 24.0; buffer += 2.0) {
      c.obs.buffer_s = buffer;
      PlanQuery q = make_query(c);
      double value = dp.plan(q).best_value;
      EXPECT_GE(value, prev - 1e-12) << "buffer " << buffer << " trial " << trial;
      prev = value;
    }
  }
}

TEST_F(PlannerEquivalence, SteadyStateHotPathStopsAllocating) {
  DpPlanner dp;
  GridCase c;
  c.horizon = 5;
  c.rebuffer_options = std::vector<double>{0.0, 1.0, 2.0};
  c.use_weights = true;
  c.obs.video = &video_;
  c.obs.num_chunks = video_.num_chunks();
  c.obs.next_chunk = 3;
  c.obs.buffer_s = 7.5;
  c.obs.last_level = 2;
  c.weights = {1.4, 0.8, 2.1, 1.0, 0.6};
  c.obs.future_weights = {c.weights.data(), c.weights.size()};
  c.scenarios = net::triangular_scenarios(8, 2400.0, 0.4);
  // One pass over the observation sweep reaches the arena's high-water
  // mark; a second identical pass must not allocate another byte.
  auto sweep = [&] {
    for (int i = 0; i < 50; ++i) {
      c.obs.buffer_s = 0.5 * static_cast<double>(i % 40);
      c.obs.next_chunk = static_cast<size_t>(i % 20);
      PlanQuery q = make_query(c);
      dp.plan(q);
    }
  };
  sweep();
  size_t warm = dp.arena_bytes();
  sweep();
  EXPECT_EQ(dp.arena_bytes(), warm);
}

TEST_F(PlannerEquivalence, FullSessionsIdenticalAcrossPlanners) {
  auto traces = std::vector<net::ThroughputTrace>{
      net::TraceGenerator::cellular("cell", 1200, 600.0, 5),
      net::TraceGenerator::broadband("bb", 2600, 600.0, 9),
      // The Fig. 12b sweep's tightest ratio: stalls on most chunks.
      net::TraceGenerator::cellular("cell_0.2x", 1200, 600.0, 5).scaled(0.2),
  };
  std::vector<double> weights(video_.num_chunks(), 0.8);
  for (size_t i = 10; i < 16 && i < weights.size(); ++i) weights[i] = 2.4;

  for (bool sensei_mode : {false, true}) {
    for (const auto& trace : traces) {
      FuguConfig cfg;
      cfg.use_weights = sensei_mode;
      if (sensei_mode) cfg.rebuffer_options = std::vector<double>{0.0, 1.0, 2.0};
      FuguAbr dp_abr(cfg);
      FuguAbr ex_abr(cfg, std::make_unique<oracles::ExhaustivePlanner>());
      sim::Player player;
      auto s_dp = player.stream(video_, trace, dp_abr, sensei_mode ? weights : std::vector<double>{});
      auto s_ex = player.stream(video_, trace, ex_abr, sensei_mode ? weights : std::vector<double>{});
      ASSERT_EQ(s_dp.chunks().size(), s_ex.chunks().size());
      for (size_t i = 0; i < s_dp.chunks().size(); ++i) {
        const auto& a = s_dp.chunks()[i];
        const auto& b = s_ex.chunks()[i];
        EXPECT_EQ(a.level, b.level) << "chunk " << i;
        EXPECT_EQ(a.scheduled_rebuffer_s, b.scheduled_rebuffer_s) << "chunk " << i;
        EXPECT_EQ(a.rebuffer_s, b.rebuffer_s) << "chunk " << i;
        EXPECT_EQ(a.buffer_after_s, b.buffer_after_s) << "chunk " << i;
        EXPECT_EQ(a.download_time_s, b.download_time_s) << "chunk " << i;
      }
    }
  }
}

// ExperimentRunner grids must be bit-identical before/after the planner
// swap, and across thread counts — the end-to-end determinism contract the
// figure benches rely on.
TEST(PlannerGridDeterminism, GridBitIdenticalAcrossPlannersAndThreads) {
  std::vector<media::EncodedVideo> videos;
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("GridEqA", media::Genre::kNature, 120)));
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("GridEqB", media::Genre::kGaming, 120)));
  std::vector<net::ThroughputTrace> traces = {
      net::TraceGenerator::cellular("cellA", 900, 600.0, 3),
      net::TraceGenerator::broadband("bbB", 3000, 600.0, 4),
  };
  std::vector<std::vector<double>> weights;
  for (const auto& v : videos) {
    std::vector<double> w(v.num_chunks(), 1.0);
    for (size_t i = 5; i < w.size(); i += 7) w[i] = 2.2;
    weights.push_back(std::move(w));
  }

  // Both sides run SENSEI-Fugu's config; the exhaustive side plans it on
  // the reference planner.
  FuguConfig sensei_fugu;
  sensei_fugu.use_weights = true;
  sensei_fugu.rebuffer_options = {0.0, 1.0, 2.0};
  auto run = [&](bool exhaustive, size_t threads) {
    core::ExperimentRunner runner(threads);
    return core::Experiments::run_grid(
        videos, traces,
        [exhaustive, &sensei_fugu]() -> std::unique_ptr<sim::AbrPolicy> {
          if (!exhaustive) return std::make_unique<FuguAbr>(sensei_fugu);
          return std::make_unique<FuguAbr>(sensei_fugu,
                                           std::make_unique<oracles::ExhaustivePlanner>());
        },
        weights, runner);
  };

  auto base = run(true, 1);
  for (bool exhaustive : {true, false}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      auto got = run(exhaustive, threads);
      ASSERT_EQ(got.size(), base.size());
      for (size_t i = 0; i < base.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i) + " threads " + std::to_string(threads));
        EXPECT_EQ(got[i].true_qoe, base[i].true_qoe);
        ASSERT_EQ(got[i].session.chunks().size(), base[i].session.chunks().size());
        for (size_t j = 0; j < base[i].session.chunks().size(); ++j) {
          EXPECT_EQ(got[i].session.chunks()[j].level, base[i].session.chunks()[j].level);
          EXPECT_EQ(got[i].session.chunks()[j].rebuffer_s,
                    base[i].session.chunks()[j].rebuffer_s);
          EXPECT_EQ(got[i].session.chunks()[j].scheduled_rebuffer_s,
                    base[i].session.chunks()[j].scheduled_rebuffer_s);
        }
      }
    }
  }
}

// Degenerate queries — an empty lookahead (horizon 0), an empty forecast
// (no scenarios), an empty action set (no rebuffer options), or a position
// at/past the end of the video — must produce the same benign no-op plan
// from every planner: hold the last level (clamped into the ladder), no
// scheduled stall, zero value. A -1e18 "no leaf found" sentinel leaking out
// of any of these was the original bug this pins.
TEST_F(PlannerEquivalence, DegenerateQueriesNoOpAcrossAllPlanners) {
  oracles::ExhaustivePlanner exhaustive;
  DpPlanner dp;
  ViPlanner vi;
  Planner* planners[] = {&exhaustive, &dp, &vi};

  auto scenarios = net::triangular_scenarios(3, 1800.0, 0.3);
  const std::vector<double> rebuf = {0.0, 1.0, 2.0};
  const size_t L = video_.ladder().level_count();

  struct Degenerate {
    const char* what;
    size_t horizon;
    size_t num_scenarios;
    size_t num_rebuf;
    size_t next_chunk;
    size_t last_level;
  };
  const Degenerate cases[] = {
      {"horizon 0", 0, 3, 3, 4, 2},
      {"no scenarios", 5, 0, 3, 4, 2},
      {"no rebuffer options", 5, 3, 0, 4, 2},
      {"past end of video", 5, 3, 3, video_.num_chunks(), 2},
      {"level clamp", 0, 3, 3, 4, L + 7},
  };
  for (const auto& c : cases) {
    sim::AbrObservation obs;
    obs.video = &video_;
    obs.num_chunks = video_.num_chunks();
    obs.next_chunk = c.next_chunk;
    obs.buffer_s = 12.0;
    obs.last_level = c.last_level;

    PlanQuery q;
    q.obs = &obs;
    q.scenarios = scenarios.data();
    q.num_scenarios = c.num_scenarios;
    q.horizon = c.horizon;
    q.rebuffer_options = rebuf.data();
    q.num_rebuffer_options = c.num_rebuf;
    q.use_weights = false;
    q.prev_visual_quality = video_.visual_quality(0, 0);

    const size_t expected_level = std::min(c.last_level, L - 1);
    for (Planner* p : planners) {
      SCOPED_TRACE(c.what);
      PlanResult r = p->plan(q);
      EXPECT_EQ(r.best_level, expected_level);
      EXPECT_EQ(r.nostall_level, expected_level);
      EXPECT_DOUBLE_EQ(r.best_rebuffer_s, 0.0);
      EXPECT_DOUBLE_EQ(r.best_value, 0.0);
      EXPECT_DOUBLE_EQ(r.nostall_value, 0.0);
    }
  }
}

// The bucketing helper is the single point where ViPlanner's buffer
// discretization happens; its edge behavior (signed zero, negatives,
// NaN, half-bucket edges) is what keeps quantized state keys from splitting
// identical states across platforms.
TEST(BufferBucket, EdgeCases) {
  // Everything at or below zero collapses to bucket 0 — including -0.0 and
  // NaN (the !(x > 0) form is deliberate).
  EXPECT_EQ(buffer_bucket(0.0, 0.25), 0u);
  EXPECT_EQ(buffer_bucket(-0.0, 0.25), 0u);
  EXPECT_EQ(buffer_bucket(-3.7, 0.25), 0u);
  EXPECT_EQ(buffer_bucket(std::nan(""), 0.25), 0u);

  // Round-half-away-from-zero (llround), not floor/truncation: 0.124 of a
  // 0.25 bucket rounds down, 0.126 rounds up, and the 0.125 edge goes up.
  EXPECT_EQ(buffer_bucket(0.124, 0.25), 0u);
  EXPECT_EQ(buffer_bucket(0.125, 0.25), 1u);
  EXPECT_EQ(buffer_bucket(0.126, 0.25), 1u);
  EXPECT_EQ(buffer_bucket(0.374, 0.25), 1u);
  EXPECT_EQ(buffer_bucket(0.376, 0.25), 2u);

  // Exact multiples land on their own bucket at any quantum.
  for (double quantum : {0.25, 0.5, 2.0}) {
    for (uint64_t k = 1; k <= 120; ++k) {
      EXPECT_EQ(buffer_bucket(static_cast<double>(k) * quantum, quantum), k)
          << "k=" << k << " quantum=" << quantum;
    }
  }
}

// quantize_kbps defines the vi tail's forecast bins (and so the PlanBatch
// table key). It must be idempotent, monotone non-decreasing, and clamp the
// degenerate low end to 1 kbps.
TEST(QuantizeKbps, BinSanity) {
  // The sub-1 range collapses to the 1 kbps fixed point.
  EXPECT_DOUBLE_EQ(quantize_kbps(0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantize_kbps(-50.0), 1.0);
  EXPECT_DOUBLE_EQ(quantize_kbps(1.0), 1.0);

  double prev = 0.0;
  for (double k = 1.0; k < 50000.0; k *= 1.07) {
    const double b = quantize_kbps(k);
    // Idempotent: a bin center maps to itself.
    EXPECT_DOUBLE_EQ(quantize_kbps(b), b) << "k=" << k;
    // Monotone non-decreasing in the input.
    EXPECT_GE(b, prev) << "k=" << k;
    // Relative error bounded by half a bin in log space.
    const double half_bin = std::exp2(0.5 / kViKbpsBinsPerOctave);
    EXPECT_LE(b / k, half_bin) << "k=" << k;
    EXPECT_GE(b / k, 1.0 / half_bin) << "k=" << k;
    prev = b;
  }
}

// quantize_kbps reads the bin off the exponent bits; it must return exactly
// what the libm expression it replaced returns. The risky band sits just
// below each odd power of two, where log2 may round up onto the power and
// flip the half-octave rounding, so every odd power in [1, 2^40] is walked
// 256 ulps either side; seeded log-uniform samples and the edge values
// cover the rest.
TEST(QuantizeKbps, ExponentBinsMatchLibmReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto reference = [](double kbps) {
    const double k = std::max(1.0, kbps);
    return std::exp2(static_cast<double>(std::llround(std::log2(k) * kViKbpsBinsPerOctave)) /
                     kViKbpsBinsPerOctave);
  };
  const auto check = [&](double k) {
    const double got = quantize_kbps(k);
    const double want = reference(k);
    uint64_t a, b;
    std::memcpy(&a, &got, sizeof(a));
    std::memcpy(&b, &want, sizeof(b));
    return a == b;
  };
  for (int e = 1; e <= 39; e += 2) {
    double below = std::ldexp(1.0, e);
    double above = below;
    for (int u = 0; u <= 256; ++u) {
      EXPECT_TRUE(check(below)) << std::hexfloat << below;
      EXPECT_TRUE(check(above)) << std::hexfloat << above;
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, kInf);
    }
  }
  std::mt19937_64 gen(0x9a4b1e5);
  std::uniform_real_distribution<double> log2_kbps(-4.0, 44.0);
  size_t mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const double k = std::exp2(log2_kbps(gen));
    if (!check(k)) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u);
  for (double k : {0.0, -0.0, -1.0, 1.0, 2.0, 3.0, 4.0, std::nextafter(4.0, 0.0),
                   std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::denorm_min(), kInf, -kInf,
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_TRUE(check(k)) << std::hexfloat << k;
  }
}

}  // namespace
}  // namespace sensei::abr
