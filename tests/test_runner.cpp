// ExperimentRunner: the parallel fan-out must be a drop-in replacement for
// the serial loop — bit-identical results, task-indexed (never worker-
// indexed) random streams, and clean exception propagation.
#include "core/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "abr/bba.h"
#include "core/experiments.h"

namespace sensei {
namespace {

using core::ExperimentRunner;
using core::Experiments;

TEST(RunnerTest, DefaultsToHardwareConcurrency) {
  ExperimentRunner runner;
  EXPECT_GE(runner.num_threads(), 1u);
}

TEST(RunnerTest, RunsEveryTaskExactlyOnce) {
  ExperimentRunner runner(4);
  constexpr size_t kTasks = 257;  // not a multiple of the worker count
  std::vector<std::atomic<int>> hits(kTasks);
  runner.for_each(kTasks, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kTasks; ++i) EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(RunnerTest, ZeroTasksIsANoop) {
  ExperimentRunner runner(4);
  bool touched = false;
  runner.for_each(0, [&](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(RunnerTest, SingleThreadRunsInlineInOrder) {
  ExperimentRunner runner(1);
  EXPECT_EQ(runner.num_threads(), 1u);
  // With one thread the calling thread drains the cursor itself, so tasks
  // observe strict index order — the serial baseline.
  std::vector<size_t> order;
  runner.for_each(16, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(RunnerTest, MapParallelMatchesSerialBitwise) {
  auto task = [](size_t i) {
    // A deterministic but nontrivial float computation per index.
    util::Rng rng(ExperimentRunner::task_seed(99, i));
    double acc = 0.0;
    for (int k = 0; k < 50; ++k) acc += std::sin(rng.uniform() * (1.0 + i));
    return acc;
  };
  ExperimentRunner serial(1);
  ExperimentRunner parallel(4);
  auto a = serial.map(123, task);
  auto b = parallel.map(123, task);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "task " << i;  // exact, not approximate
  }
}

TEST(RunnerTest, TaskSeedDependsOnlyOnBaseSeedAndIndex) {
  EXPECT_EQ(ExperimentRunner::task_seed(1, 7), ExperimentRunner::task_seed(1, 7));
  EXPECT_NE(ExperimentRunner::task_seed(1, 7), ExperimentRunner::task_seed(1, 8));
  EXPECT_NE(ExperimentRunner::task_seed(1, 7), ExperimentRunner::task_seed(2, 7));
  // Consecutive indices must not yield correlated (e.g. offset-by-one) seeds.
  std::set<uint64_t> seeds;
  for (size_t i = 0; i < 100; ++i) seeds.insert(ExperimentRunner::task_seed(42, i));
  EXPECT_EQ(seeds.size(), 100u);
}

TEST(RunnerTest, SeededStreamsAreScheduleIndependent) {
  auto draw_all = [](const ExperimentRunner& runner) {
    std::vector<double> first(64), second(64);
    runner.for_each_seeded(64, 0xABCD, [&](size_t i, util::Rng& rng) {
      first[i] = rng.uniform();
      second[i] = rng.normal();
    });
    std::vector<double> out = first;
    out.insert(out.end(), second.begin(), second.end());
    return out;
  };
  ExperimentRunner serial(1);
  ExperimentRunner parallel(4);
  EXPECT_EQ(draw_all(serial), draw_all(parallel));
}

TEST(RunnerTest, ExceptionPropagatesFromWorkerTask) {
  ExperimentRunner runner(4);
  EXPECT_THROW(runner.for_each(100,
                               [&](size_t i) {
                                 if (i == 57) throw std::runtime_error("task 57 failed");
                               }),
               std::runtime_error);
  // The pool must stay usable after a failed job.
  std::atomic<size_t> done{0};
  runner.for_each(32, [&](size_t) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 32u);
}

TEST(RunnerTest, ExceptionPropagatesWithSingleThread) {
  ExperimentRunner runner(1);
  EXPECT_THROW(
      runner.for_each(8, [&](size_t i) {
        if (i == 3) throw std::invalid_argument("bad task");
      }),
      std::invalid_argument);
}

// --- Experiments::run_grid on top of the runner ----------------------------

class RunnerGridTest : public ::testing::Test {
 protected:
  static std::vector<media::EncodedVideo> grid_videos() {
    const auto& all = Experiments::videos();
    return {all.begin(), all.begin() + 3};
  }
  static std::vector<net::ThroughputTrace> grid_traces() {
    const auto& all = Experiments::traces();
    return {all.begin(), all.begin() + 2};
  }
  static Experiments::PolicyFactory bba_factory() {
    return [] { return std::make_unique<abr::BbaAbr>(); };
  }
};

TEST_F(RunnerGridTest, ParallelGridBitIdenticalToSerial) {
  auto videos = grid_videos();
  auto traces = grid_traces();
  ExperimentRunner serial(1);
  ExperimentRunner parallel(4);
  auto a = Experiments::run_grid(videos, traces, bba_factory(), {}, serial);
  auto b = Experiments::run_grid(videos, traces, bba_factory(), {}, parallel);
  ASSERT_EQ(a.size(), videos.size() * traces.size());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].true_qoe, b[i].true_qoe) << "cell " << i;
    const auto& ca = a[i].session.chunks();
    const auto& cb = b[i].session.chunks();
    ASSERT_EQ(ca.size(), cb.size()) << "cell " << i;
    for (size_t c = 0; c < ca.size(); ++c) {
      EXPECT_EQ(ca[c].level, cb[c].level);
      EXPECT_EQ(ca[c].rebuffer_s, cb[c].rebuffer_s);
      EXPECT_EQ(ca[c].buffer_after_s, cb[c].buffer_after_s);
      EXPECT_EQ(ca[c].visual_quality, cb[c].visual_quality);
    }
  }
}

TEST_F(RunnerGridTest, GridMatchesDirectSerialLoopRowMajor) {
  auto videos = grid_videos();
  auto traces = grid_traces();
  ExperimentRunner parallel(4);
  auto grid = Experiments::run_grid(videos, traces, bba_factory(), {}, parallel);
  for (size_t v = 0; v < videos.size(); ++v) {
    for (size_t t = 0; t < traces.size(); ++t) {
      abr::BbaAbr bba;
      auto direct = Experiments::run(videos[v], traces[t], bba, {});
      const auto& cell = grid[v * traces.size() + t];
      EXPECT_EQ(cell.true_qoe, direct.true_qoe) << "v=" << v << " t=" << t;
      EXPECT_EQ(cell.session.video_name(), direct.session.video_name());
      EXPECT_EQ(cell.session.trace_name(), direct.session.trace_name());
    }
  }
}

// run_grid attaches one abr::PlanBatch to every cell's policy; the DP
// planners read the batch's tables through the expressions they would
// evaluate locally, so each cell must equal an unbatched Experiments::run
// bit for bit, weighted (SENSEI) or not.
TEST_F(RunnerGridTest, BatchedDpGridMatchesUnbatchedRuns) {
  auto videos = grid_videos();
  auto traces = grid_traces();
  const auto& all_weights = Experiments::weights();
  const std::vector<std::vector<double>> weights(all_weights.begin(),
                                                 all_weights.begin() + videos.size());
  ExperimentRunner parallel(4);
  for (const char* spec : {"fugu:planner=dp", "sensei-fugu:planner=dp"}) {
    SCOPED_TRACE(spec);
    const auto factory = Experiments::policy_factory(spec);
    const bool weighted = std::string(spec).rfind("sensei", 0) == 0;
    const std::vector<std::vector<double>> grid_weights =
        weighted ? weights : std::vector<std::vector<double>>{};
    auto grid = Experiments::run_grid(videos, traces, factory, grid_weights, parallel);
    for (size_t v = 0; v < videos.size(); ++v) {
      for (size_t t = 0; t < traces.size(); ++t) {
        auto policy = factory();
        auto direct = Experiments::run(videos[v], traces[t], *policy,
                                       weighted ? weights[v] : std::vector<double>{});
        const auto& cell = grid[v * traces.size() + t];
        EXPECT_EQ(cell.true_qoe, direct.true_qoe) << "v=" << v << " t=" << t;
        const auto& ca = cell.session.chunks();
        const auto& cb = direct.session.chunks();
        ASSERT_EQ(ca.size(), cb.size()) << "v=" << v << " t=" << t;
        for (size_t c = 0; c < ca.size(); ++c) {
          EXPECT_EQ(ca[c].level, cb[c].level) << "v=" << v << " t=" << t << " chunk " << c;
          EXPECT_EQ(ca[c].rebuffer_s, cb[c].rebuffer_s);
          EXPECT_EQ(ca[c].download_time_s, cb[c].download_time_s);
          EXPECT_EQ(ca[c].buffer_after_s, cb[c].buffer_after_s);
          EXPECT_EQ(ca[c].visual_quality, cb[c].visual_quality);
        }
      }
    }
  }
}

TEST_F(RunnerGridTest, MismatchedWeightsThrow) {
  ExperimentRunner runner(2);
  std::vector<std::vector<double>> wrong(grid_videos().size() + 1);
  EXPECT_THROW(
      Experiments::run_grid(grid_videos(), grid_traces(), bba_factory(), wrong, runner),
      std::invalid_argument);
}

TEST_F(RunnerGridTest, PolicyFactoryExceptionPropagates) {
  ExperimentRunner runner(2);
  Experiments::PolicyFactory broken = []() -> std::unique_ptr<sim::AbrPolicy> {
    throw std::runtime_error("factory failed");
  };
  EXPECT_THROW(Experiments::run_grid(grid_videos(), grid_traces(), broken, {}, runner),
               std::runtime_error);
}

}  // namespace
}  // namespace sensei
