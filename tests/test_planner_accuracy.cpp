// Accuracy and sharing gates for the discretized ViPlanner (the lossy
// throughput mode behind fleet-scale Fugu):
//  - its decisions must track the exact DP on a seeded grid, and the
//    end-to-end QoE it achieves must sit within a pinned delta of the exact
//    planner at the default quantum (the headline "discretized vs exact"
//    number next to bench_multisession's 10x sessions/s);
//  - attaching a PlanBatch — the cross-session table/value sharing that
//    produces the speedup — must be bit-invisible: batched and unbatched
//    decide() agree field-for-field, for vi and dp alike, per query and
//    across whole multi-session event loops and thread counts;
//  - one PlanBatch shared by planners on concurrent threads (the fleet's
//    run-wide batch) must stay bit-invisible whatever the interleaving;
//  - the unbatched hot path must stop allocating at steady state, like the
//    DP it sits beside.
#include "abr/planner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "abr/fugu.h"
#include "core/experiments.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "qoe/chunk_quality.h"
#include "sim/player.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace sensei::abr {
namespace {

class PlannerAccuracy : public ::testing::Test {
 protected:
  media::EncodedVideo video_ = media::Encoder().encode(
      media::SourceVideo::generate("PlannerAcc", media::Genre::kSports, 120));
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

// Seeded grid spanning buffers, positions, levels, scenario spreads,
// weights, and both rebuffer-action sets (the equivalence-test recipe).
std::vector<GridCase> seeded_grid(const media::EncodedVideo& video, uint64_t seed,
                                  size_t cases_per_combo) {
  util::Rng rng(seed);
  std::vector<GridCase> grid;
  for (size_t horizon : {1, 3, 5}) {
    for (bool use_weights : {false, true}) {
      for (bool stall_actions : {false, true}) {
        for (size_t i = 0; i < cases_per_combo; ++i) {
          GridCase c;
          c.horizon = horizon;
          c.use_weights = use_weights;
          c.rebuffer_options =
              stall_actions ? std::vector<double>{0.0, 1.0, 2.0} : std::vector<double>{0.0};
          c.obs.video = &video;
          c.obs.num_chunks = video.num_chunks();
          c.obs.next_chunk = static_cast<size_t>(
              rng.uniform_int(0, static_cast<int>(video.num_chunks()) - 1));
          c.obs.buffer_s = rng.uniform(0.0, 28.0);
          c.obs.last_level = static_cast<size_t>(
              rng.uniform_int(0, static_cast<int>(video.ladder().level_count()) - 1));
          size_t num_scen = rng.chance(0.5) ? 3 : 8;
          c.scenarios = net::triangular_scenarios(num_scen, rng.uniform(250.0, 6500.0),
                                                  rng.uniform(0.05, 0.8));
          if (use_weights) {
            for (size_t d = 0; d < horizon; ++d) c.weights.push_back(rng.uniform(0.5, 2.8));
            c.obs.future_weights = {c.weights.data(), c.weights.size()};
          }
          grid.push_back(std::move(c));
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
  q.prev_visual_quality =
      c.obs.next_chunk > 0
          ? c.obs.video->visual_quality(c.obs.next_chunk - 1, c.obs.last_level)
          : c.obs.video->visual_quality(0, 0);
  return q;
}

bool in_menu(double value, const std::vector<double>& menu) {
  for (double m : menu)
    if (m == value) return true;
  return false;
}

// Session-mean chunk quality under the default params: the session-level
// metric the vi-vs-exact delta is pinned on (bench_multisession's
// "qoe_delta_vs_exact" uses the same fold).
double mean_chunk_qoe(const sim::SessionResult& session) {
  const qoe::ChunkQualityParams params;
  double sum = 0.0;
  size_t n = 0;
  double prev_vq = 0.0;
  for (size_t i = 0; i < session.chunks().size(); ++i) {
    const auto& rec = session.chunks()[i];
    double pv = i == 0 ? rec.visual_quality : prev_vq;
    sum += qoe::chunk_quality(rec.visual_quality, rec.rebuffer_s, pv, params);
    prev_vq = rec.visual_quality;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

// The vi planner is lossy by design (buffer buckets, log-binned scenario
// kbps, closed-loop relaxation), so per-decision agreement with the exact
// DP is a rate, not an identity. The floors are deliberately loose — the
// tight contract is the end-to-end QoE delta below — but they would catch
// a planner that stopped looking at its inputs.
TEST_F(PlannerAccuracy, ViDecisionsTrackExactAcrossQuanta) {
  DpPlanner exact;  // bit-identical to the exhaustive reference
  for (double quantum : {0.5, 1.0, kDefaultViBufferQuantumS}) {
    ViPlanner vi(quantum);
    auto grid = seeded_grid(video_, 0xacc0da7a, 5);
    size_t agree = 0;
    for (size_t i = 0; i < grid.size(); ++i) {
      PlanQuery q = make_query(grid[i]);
      PlanResult e = exact.plan(q);
      PlanResult v = vi.plan(q);
      SCOPED_TRACE("case " + std::to_string(i) + " quantum " + std::to_string(quantum));
      // Structural sanity regardless of divergence: the decision must come
      // from the actual menus and the sentinel must never leak.
      EXPECT_LT(v.best_level, video_.ladder().level_count());
      EXPECT_LT(v.nostall_level, video_.ladder().level_count());
      EXPECT_TRUE(in_menu(v.best_rebuffer_s, grid[i].rebuffer_options));
      EXPECT_TRUE(std::isfinite(v.best_value));
      EXPECT_GT(v.best_value, -1e17);
      EXPECT_GE(v.best_value, v.nostall_value);
      if (v.best_level == e.best_level && v.best_rebuffer_s == e.best_rebuffer_s) ++agree;
    }
    double rate = static_cast<double>(agree) / static_cast<double>(grid.size());
    EXPECT_GE(rate, 0.5) << "vi-vs-exact decision agreement collapsed at quantum "
                         << quantum << " (rate " << rate << ")";
  }
}

// End-to-end, the discretization must cost almost nothing: full Fugu
// sessions planned by vi stay within a pinned mean-chunk-QoE delta of the
// exact-DP sessions on both cellular and broadband traces. This is the
// accuracy half of the throughput/accuracy trade bench_multisession pins
// the speed half of.
TEST_F(PlannerAccuracy, ViEndToEndQoeDeltaPinnedAtDefaultQuantum) {
  auto traces = std::vector<net::ThroughputTrace>{
      net::TraceGenerator::cellular("acc-cell", 1400, 600.0, 11),
      net::TraceGenerator::cellular("acc-cell-lo", 700, 600.0, 23),
      net::TraceGenerator::broadband("acc-bb", 2600, 600.0, 7),
  };
  double worst = 0.0;
  for (const auto& trace : traces) {
    FuguConfig dp_cfg, vi_cfg;
    dp_cfg.planner = PlannerKind::kDp;
    vi_cfg.planner = PlannerKind::kVi;
    FuguAbr dp_abr(dp_cfg), vi_abr(vi_cfg);
    sim::Player player;
    auto s_dp = player.stream(video_, trace, dp_abr);
    auto s_vi = player.stream(video_, trace, vi_abr);
    double delta = mean_chunk_qoe(s_vi) - mean_chunk_qoe(s_dp);
    worst = std::max(worst, std::abs(delta));
  }
  // Pinned bound: the discretized planner trades < 0.1 mean chunk QoE
  // (measured ~0.01-0.04 on these traces; chunk QoE spans roughly [-0.5, 4]).
  EXPECT_LE(worst, 0.1);
}

// Attaching a PlanBatch moves tables, never values: per-query decide() must
// be bit-identical with and without the batch, for the vi planner (whose
// whole value table lives in the batch) and the dp planner (whose static
// video tables do). Queries run twice so the second pass exercises warm
// shared tables (pure cache hits) against the unbatched recompute.
TEST_F(PlannerAccuracy, BatchedDecideBitIdenticalToUnbatched) {
  auto grid = seeded_grid(video_, 0xba7c4ed, 4);
  struct Pair {
    std::unique_ptr<Planner> batched, plain;
  };
  PlanBatch batch;
  std::vector<Pair> pairs;
  pairs.push_back({std::make_unique<ViPlanner>(), std::make_unique<ViPlanner>()});
  pairs.push_back({std::make_unique<DpPlanner>(), std::make_unique<DpPlanner>()});
  for (auto& pair : pairs) {
    pair.batched->set_batch(&batch);
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t i = 0; i < grid.size(); ++i) {
        PlanQuery q = make_query(grid[i]);
        PlanResult a = pair.batched->plan(q);
        PlanResult b = pair.plain->plan(q);
        SCOPED_TRACE(std::string(pair.batched->name()) + " case " + std::to_string(i) +
                     " pass " + std::to_string(pass));
        EXPECT_EQ(a.best_level, b.best_level);
        EXPECT_EQ(a.best_rebuffer_s, b.best_rebuffer_s);
        EXPECT_EQ(a.best_value, b.best_value);
        EXPECT_EQ(a.nostall_level, b.nostall_level);
        EXPECT_EQ(a.nostall_value, b.nostall_value);
      }
    }
  }
  EXPECT_GT(batch.num_vi_tables(), 0u);
}

// Planners on four threads share one PlanBatch, as the fleet's cells do.
// Each first walks one steady session that every thread enters at once, at
// its own quarter of the video, so threads race to create one context,
// grow its chunk directory from different ends and read tables another
// thread is still filling. Then each plans one query grid in its own
// order. Every result must match an unbatched planner bit for bit, and the
// batch must end up holding exactly the tables a serial run creates: one
// per distinct (context, chunk).
TEST_F(PlannerAccuracy, SharedBatchAcrossThreadsBitIdenticalToUnbatched) {
  std::vector<GridCase> grid;
  // The raced walk: rows [0, chunks) under one forecast.
  const size_t chunks = video_.num_chunks();
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    GridCase c;
    c.rebuffer_options = {0.0, 1.0};
    c.obs.video = &video_;
    c.obs.num_chunks = chunks;
    c.obs.next_chunk = chunk;
    c.obs.buffer_s = static_cast<double>(chunk % 11) * 2.3;
    c.obs.last_level = (chunk * 3) % video_.ladder().level_count();
    c.scenarios = net::triangular_scenarios(3, 1500.0, 0.25);
    grid.push_back(std::move(c));
  }
  for (GridCase& c : seeded_grid(video_, 0x7417ead, 3)) grid.push_back(std::move(c));
  // Steady sessions: consecutive chunks under one forecast, the pattern the
  // context directory serves without a lock.
  for (double kbps : {900.0, 2400.0, 5200.0}) {
    for (size_t chunk = 0; chunk < video_.num_chunks(); ++chunk) {
      GridCase c;
      c.rebuffer_options = {0.0};
      c.obs.video = &video_;
      c.obs.num_chunks = video_.num_chunks();
      c.obs.next_chunk = chunk;
      c.obs.buffer_s = static_cast<double>(chunk % 15) * 1.7;
      c.obs.last_level = chunk % video_.ladder().level_count();
      c.scenarios = net::triangular_scenarios(3, kbps, 0.3);
      grid.push_back(std::move(c));
    }
  }
  const size_t n = grid.size();

  std::vector<PlanResult> expected(n);
  ViPlanner plain;
  for (size_t i = 0; i < n; ++i) expected[i] = plain.plan(make_query(grid[i]));

  PlanBatch serial_batch;
  ViPlanner serial;
  serial.set_batch(&serial_batch);
  for (size_t i = 0; i < n; ++i) serial.plan(make_query(grid[i]));

  // Thread t walks the raced rows from chunk t * chunks / 4, wrapping, then
  // the rest forward, reversed, rotated by half, or in a seeded shuffle.
  constexpr size_t kThreads = 4;
  const size_t rest = n - chunks;
  std::vector<std::vector<size_t>> orders(kThreads, std::vector<size_t>(rest));
  for (size_t i = 0; i < rest; ++i) {
    orders[0][i] = chunks + i;
    orders[1][i] = n - 1 - i;
    orders[2][i] = chunks + (i + rest / 2) % rest;
    orders[3][i] = chunks + i;
  }
  util::Rng rng(0x5eed);
  rng.shuffle(orders[3]);
  for (size_t t = 0; t < kThreads; ++t) {
    std::vector<size_t> walk(chunks);
    for (size_t i = 0; i < chunks; ++i) walk[i] = (t * chunks / kThreads + i) % chunks;
    orders[t].insert(orders[t].begin(), walk.begin(), walk.end());
  }

  PlanBatch batch;
  std::vector<std::vector<PlanResult>> got(kThreads, std::vector<PlanResult>(n));
  std::vector<std::thread> threads;
  std::atomic<size_t> ready{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ViPlanner vi;
      vi.set_batch(&batch);
      // Start together, so the first plans race on the walk's context.
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (size_t i : orders[t]) got[t][i] = vi.plan(make_query(grid[i]));
    });
  }
  for (std::thread& th : threads) th.join();

  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < n; ++i) {
      SCOPED_TRACE("thread " + std::to_string(t) + " case " + std::to_string(i));
      EXPECT_EQ(got[t][i].best_level, expected[i].best_level);
      EXPECT_EQ(got[t][i].best_rebuffer_s, expected[i].best_rebuffer_s);
      EXPECT_EQ(got[t][i].best_value, expected[i].best_value);
      EXPECT_EQ(got[t][i].nostall_level, expected[i].nostall_level);
      EXPECT_EQ(got[t][i].nostall_value, expected[i].nostall_value);
    }
  }
  EXPECT_EQ(batch.num_vi_tables(), serial_batch.num_vi_tables());
  EXPECT_GT(batch.num_vi_tables(), 0u);
}

// One batched ViPlanner against an unbatched one over a stream that moves
// its vi context every way a session can: two videos alternate (so the
// held context misses and is found again in the index), two horizons
// alternate and the walks run into tail chunks where the lookahead depth
// shrinks (so the grid geometry is rebuilt), weights switch on and off
// (weighted contexts carry a shifting window and serve one chunk), and the
// batch is detached and re-attached mid-stream. Every decision must match
// bit for bit, and the batch must hold one table per distinct
// (context, chunk) the attached plans asked for.
TEST_F(PlannerAccuracy, ContextDirectoryStreamBitIdenticalToUnbatched) {
  const media::EncodedVideo video_b = media::Encoder().encode(
      media::SourceVideo::generate("PlannerCtxB", media::Genre::kNature, 56));
  const media::EncodedVideo* videos[2] = {&video_, &video_b};
  util::Rng rng(0xc0e7e47);
  // Per-video sensitivity weights, read through a window that shifts with
  // the chunk, as a manifest's are.
  std::vector<double> weights[2];
  for (size_t v = 0; v < 2; ++v) {
    for (size_t c = 0; c < videos[v]->num_chunks(); ++c) {
      weights[v].push_back(rng.chance(0.5) ? 1.0 : rng.uniform(0.5, 2.5));
    }
  }
  size_t next_chunk[2] = {0, 0};

  PlanBatch batch;
  ViPlanner batched, plain;
  batched.set_batch(&batch);
  bool attached = true;
  // (video, depth, key, chunk) of every table an attached plan reads.
  std::set<std::tuple<size_t, size_t, std::vector<double>, size_t>> identities;
  for (size_t step = 0; step < 600; ++step) {
    if (step == 230 || step == 260) {
      attached = !attached;
      batched.set_batch(attached ? &batch : nullptr);
    }
    const size_t v = (step / 9) % 2;
    const media::EncodedVideo& video = *videos[v];
    GridCase c;
    c.horizon = (step / 18) % 2 == 0 ? 5 : 3;
    c.use_weights = (step / 13) % 3 == 1;
    c.rebuffer_options = {0.0, 1.0, 2.0};
    c.obs.video = &video;
    c.obs.num_chunks = video.num_chunks();
    c.obs.next_chunk = next_chunk[v];
    next_chunk[v] = (next_chunk[v] + 1) % video.num_chunks();
    c.obs.buffer_s = rng.uniform(0.0, 28.0);
    c.obs.last_level =
        static_cast<size_t>(rng.uniform_int(0, static_cast<int>(video.ladder().level_count()) - 1));
    // Two forecasts most of the time, so contexts recur across the stream.
    const double kbps = rng.chance(0.9) ? ((step / 5) % 2 == 0 ? 1100.0 : 3300.0)
                                        : rng.uniform(300.0, 6000.0);
    c.scenarios = net::triangular_scenarios(3, kbps, 0.3);
    if (c.use_weights) {
      c.obs.future_weights = {weights[v].data() + c.obs.next_chunk,
                              video.num_chunks() - c.obs.next_chunk};
    }
    const PlanQuery q = make_query(c);
    const PlanResult a = batched.plan(q);
    const PlanResult b = plain.plan(q);
    SCOPED_TRACE("step " + std::to_string(step));
    EXPECT_EQ(a.best_level, b.best_level);
    EXPECT_EQ(a.best_rebuffer_s, b.best_rebuffer_s);
    EXPECT_EQ(a.best_value, b.best_value);
    EXPECT_EQ(a.nostall_level, b.nostall_level);
    EXPECT_EQ(a.nostall_value, b.nostall_value);

    if (!attached) continue;
    const size_t depth = std::min(c.horizon, video.num_chunks() - c.obs.next_chunk);
    std::vector<double> key;
    for (const auto& sc : c.scenarios) {
      key.push_back(quantize_kbps(sc.kbps));
      key.push_back(sc.probability);
    }
    if (c.use_weights) {
      for (size_t d = 0; d < depth; ++d) {
        key.push_back(1.0 + q.weight_shrinkage * (c.obs.future_weights[d] - 1.0));
      }
    }
    identities.emplace(v, depth, std::move(key), c.obs.next_chunk);
  }
  EXPECT_EQ(batch.num_vi_tables(), identities.size());
  EXPECT_GT(identities.size(), 0u);
}

// The same invariant at the event-loop level: a multi-session Simulator run
// with share_plan_tables on (the default) must be byte-identical to one
// with it off, for both planner modes — the sharing is purely a speedup.
TEST_F(PlannerAccuracy, SimulatorSharedTablesBitIdentical) {
  media::EncodedVideo video_b = media::Encoder().encode(
      media::SourceVideo::generate("PlannerAccB", media::Genre::kNature, 120));
  net::ThroughputTrace bottleneck =
      net::TraceGenerator::cellular("acc-shared", 1700, 400.0, 5).scaled(12.0, "acc-x12");
  for (auto kind : {PlannerKind::kVi, PlannerKind::kDp}) {
    auto run = [&](bool share) {
      std::vector<std::unique_ptr<sim::AbrPolicy>> policies;
      std::vector<sim::AbrPolicy*> policy_ptrs;
      for (size_t k = 0; k < 12; ++k) {
        FuguConfig fc;
        fc.planner = kind;
        policies.push_back(std::make_unique<FuguAbr>(fc));
        policy_ptrs.push_back(policies.back().get());
      }
      std::vector<const media::EncodedVideo*> videos = {&video_, &video_b};
      auto specs = sim::StaggeredSpecs{videos, policy_ptrs, {}, 12, 4.0}.build();
      sim::PlayerConfig config;
      config.share_plan_tables = share;
      return sim::Simulator(config).run(specs, bottleneck, sim::LinkMode::kShared);
    };
    auto shared = run(true);
    auto plain = run(false);
    ASSERT_EQ(shared.size(), plain.size());
    for (size_t i = 0; i < shared.size(); ++i) {
      const auto& a = shared[i].session;
      const auto& b = plain[i].session;
      ASSERT_EQ(a.chunks().size(), b.chunks().size()) << "session " << i;
      for (size_t j = 0; j < a.chunks().size(); ++j) {
        SCOPED_TRACE("session " + std::to_string(i) + " chunk " + std::to_string(j));
        EXPECT_EQ(a.chunks()[j].level, b.chunks()[j].level);
        EXPECT_EQ(a.chunks()[j].rebuffer_s, b.chunks()[j].rebuffer_s);
        EXPECT_EQ(a.chunks()[j].scheduled_rebuffer_s, b.chunks()[j].scheduled_rebuffer_s);
        EXPECT_EQ(a.chunks()[j].download_time_s, b.chunks()[j].download_time_s);
        EXPECT_EQ(a.chunks()[j].buffer_after_s, b.chunks()[j].buffer_after_s);
      }
    }
  }
}

// Multi-session grids with vi-mode Fugu must stay bit-identical across
// ExperimentRunner thread counts: each cell owns its batch, so parallel
// cells can never share (or race on) planner state.
TEST(PlannerAccuracyGrid, MultisessionGridIdenticalAcrossThreads) {
  std::vector<core::Experiments::MultiSessionCell> cells = {
      {0, 6, 5.0, sim::LinkMode::kShared},
      {1, 6, 5.0, sim::LinkMode::kShared},
      {0, 4, 2.0, sim::LinkMode::kDedicated},
  };
  auto run = [&](size_t threads) {
    core::ExperimentRunner runner(threads);
    return core::Experiments::run_multisession_grid(
        cells,
        [] {
          FuguConfig fc;
          fc.planner = PlannerKind::kVi;
          return std::make_unique<FuguAbr>(fc);
        },
        false, runner);
  };
  auto serial = run(1);
  auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t c = 0; c < serial.size(); ++c) {
    ASSERT_EQ(serial[c].size(), parallel[c].size()) << "cell " << c;
    for (size_t s = 0; s < serial[c].size(); ++s) {
      const auto& a = serial[c][s].session;
      const auto& b = parallel[c][s].session;
      ASSERT_EQ(a.chunks().size(), b.chunks().size());
      for (size_t j = 0; j < a.chunks().size(); ++j) {
        SCOPED_TRACE("cell " + std::to_string(c) + " session " + std::to_string(s) +
                     " chunk " + std::to_string(j));
        EXPECT_EQ(a.chunks()[j].level, b.chunks()[j].level);
        EXPECT_EQ(a.chunks()[j].rebuffer_s, b.chunks()[j].rebuffer_s);
        EXPECT_EQ(a.chunks()[j].download_time_s, b.chunks()[j].download_time_s);
      }
    }
  }
}

// Unbatched vi decide() reuses its arenas: after one warm-up sweep reaches
// the high-water mark, an identical sweep must not allocate another byte
// (the zero-steady-state-allocation contract the DP already obeys).
TEST_F(PlannerAccuracy, ViSteadyStateHotPathStopsAllocating) {
  ViPlanner vi;
  GridCase c;
  c.horizon = 5;
  c.rebuffer_options = std::vector<double>{0.0, 1.0, 2.0};
  c.use_weights = true;
  c.obs.video = &video_;
  c.obs.num_chunks = video_.num_chunks();
  c.weights = {1.4, 0.8, 2.1, 1.0, 0.6};
  c.obs.future_weights = {c.weights.data(), c.weights.size()};
  c.scenarios = net::triangular_scenarios(8, 2400.0, 0.4);
  auto sweep = [&] {
    for (int i = 0; i < 50; ++i) {
      c.obs.buffer_s = 0.5 * static_cast<double>(i % 40);
      c.obs.next_chunk = static_cast<size_t>(i % 20);
      c.obs.last_level = static_cast<size_t>(i % 5);
      PlanQuery q = make_query(c);
      vi.plan(q);
    }
  };
  sweep();
  size_t warm = vi.arena_bytes();
  sweep();
  EXPECT_EQ(vi.arena_bytes(), warm);
}

}  // namespace
}  // namespace sensei::abr
