// Planner microbench: DP vs exhaustive vs discretized-VI MPC lookahead,
// swept over the horizon. Emits machine-readable BENCH_planner.json (see
// bench/README.md for the schema) so perf regressions in the system's
// hottest path are caught by comparing runs.
//
//   ./bench_planner                 full sweep (horizons 1..7), ~5 s
//   ./bench_planner --smoke         reduced sweep for CI (~2 s)
//   ./bench_planner --out FILE      JSON destination (default BENCH_planner.json)
//   ./bench_planner --baseline FILE validate a pinned JSON's schema
//
// The workload mirrors SENSEI-Fugu's production configuration: the default
// 5-level ladder, 8 throughput scenarios, scheduled-rebuffer options
// {0,1,2} s, sensitivity weights on. DP decisions are cross-checked against
// the exhaustive reference (tests/oracles/, the test-only oracle library
// this bench links) while timing; any mismatch fails the process. The vi
// planner is lossy by design: its decision divergence is counted and
// reported, never fatal.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "abr/planner.h"
#include "bench_util.h"
#include "media/dataset.h"
#include "oracles/exhaustive_planner.h"
#include "util/kernels.h"
#include "util/rng.h"

using namespace sensei;

namespace {

struct ObsCase {
  sim::AbrObservation obs;
  std::vector<net::ThroughputScenario> scenarios;
};

// Seeded observation set: buffers, positions, levels, and sensitivity
// weights spread across their realistic ranges.
std::vector<ObsCase> make_cases(const media::EncodedVideo& video, size_t count,
                                size_t num_scenarios, size_t max_horizon, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ObsCase> cases(count);
  for (auto& c : cases) {
    c.obs.video = &video;
    c.obs.num_chunks = video.num_chunks();
    c.obs.next_chunk = static_cast<size_t>(rng.uniform_int(
        0, static_cast<int>(video.num_chunks() - max_horizon - 1)));
    c.obs.buffer_s = rng.uniform(0.0, 28.0);
    c.obs.last_level = static_cast<size_t>(
        rng.uniform_int(0, static_cast<int>(video.ladder().level_count()) - 1));
    for (size_t d = 0; d < max_horizon; ++d)
      c.obs.future_weights.push_back(rng.uniform(0.5, 2.8));
    double center = rng.uniform(300.0, 6000.0);
    double cv = rng.uniform(0.05, 0.8);
    c.scenarios = net::triangular_scenarios(num_scenarios, center, cv);
  }
  return cases;
}

abr::PlanQuery make_query(const ObsCase& c, size_t horizon, const std::vector<double>& rebuf) {
  abr::PlanQuery q;
  q.obs = &c.obs;
  q.scenarios = c.scenarios.data();
  q.num_scenarios = c.scenarios.size();
  q.horizon = horizon;
  q.rebuffer_options = rebuf.data();
  q.num_rebuffer_options = rebuf.size();
  q.use_weights = true;
  q.weight_shrinkage = 0.8;
  q.prev_visual_quality =
      c.obs.next_chunk > 0
          ? c.obs.video->visual_quality(c.obs.next_chunk - 1, c.obs.last_level)
          : c.obs.video->visual_quality(0, 0);
  return q;
}

double time_plans_ns(abr::Planner& planner, const std::vector<abr::PlanQuery>& queries,
                     size_t reps, uint64_t* checksum) {
  auto start = std::chrono::steady_clock::now();
  uint64_t sum = 0;
  for (size_t r = 0; r < reps; ++r) {
    for (const auto& q : queries) {
      abr::PlanResult res = planner.plan(q);
      sum += res.best_level * 4 + static_cast<uint64_t>(res.best_rebuffer_s);
    }
  }
  double total_ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  *checksum += sum;
  return total_ns / static_cast<double>(reps * queries.size());
}

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv, {"--out", "--baseline"}, {"--smoke"},
                     "bench_planner [--smoke] [--out FILE] [--baseline FILE]");
  const bool smoke = bench::smoke_arg(argc, argv);
  const std::string out_path = bench::out_arg(argc, argv, "BENCH_planner.json");
  const std::string baseline_path = bench::baseline_arg(argc, argv);
  if (!baseline_path.empty()) {
    // A pre-vi baseline must fail here, not silently diff clean.
    bench::check_baseline_fields(baseline_path, 2,
                                 {"\"vi\"", "\"vi_decision_divergence\"",
                                  "\"vi_quantum_s\""});
  }

  const std::vector<size_t> horizons =
      smoke ? std::vector<size_t>{1, 3, 5} : std::vector<size_t>{1, 2, 3, 4, 5, 6, 7};
  const size_t num_obs = smoke ? 8 : 48;
  const size_t num_scenarios = 8;
  const std::vector<double> rebuf = {0.0, 1.0, 2.0};
  const uint64_t seed = 0x5e15e1;

  auto video = media::Encoder().encode(
      media::SourceVideo::generate("PlannerBench", media::Genre::kSports, 240));
  const size_t max_horizon = horizons.back();
  auto cases = make_cases(video, num_obs, num_scenarios, max_horizon, seed);

  abr::DpPlanner dp;
  oracles::ExhaustivePlanner exhaustive;
  abr::ViPlanner vi;  // default quantum: the production discretization

  struct Row {
    size_t horizon;
    double dp_ns, ex_ns, vi_ns;
    size_t mismatches;
    size_t vi_divergence;
    size_t decisions;
  };
  std::vector<Row> rows;
  size_t total_mismatches = 0;
  size_t total_vi_divergence = 0;

  std::printf("planner bench: %zu obs, %zu scenarios, ladder %zu levels, rebuf {0,1,2}s, "
              "vi quantum %.3gs\n",
              num_obs, num_scenarios, video.ladder().level_count(), vi.quantum_s());
  std::printf("%8s %14s %14s %14s %10s %12s %10s\n", "horizon", "dp ns/dec",
              "exhaustive ns", "vi ns/dec", "speedup", "mismatches", "vi div");

  for (size_t h : horizons) {
    std::vector<abr::PlanQuery> queries;
    queries.reserve(cases.size());
    for (const auto& c : cases) queries.push_back(make_query(c, h, rebuf));

    // Cross-check decisions once before timing: dp must agree with the
    // reference; vi's divergence is counted (lossy by design).
    size_t mismatches = 0;
    size_t vi_divergence = 0;
    for (const auto& q : queries) {
      abr::PlanResult a = exhaustive.plan(q);
      abr::PlanResult b = dp.plan(q);
      if (a.best_level != b.best_level || a.best_rebuffer_s != b.best_rebuffer_s ||
          a.best_value != b.best_value || a.nostall_level != b.nostall_level ||
          a.nostall_value != b.nostall_value) {
        ++mismatches;
      }
      abr::PlanResult v = vi.plan(q);
      if (v.best_level != a.best_level || v.best_rebuffer_s != a.best_rebuffer_s) {
        ++vi_divergence;
      }
    }
    total_mismatches += mismatches;
    total_vi_divergence += vi_divergence;

    // Repetitions scale down with the exponential cost of the exhaustive
    // side; the DP and VI run proportionally more reps for stable timing.
    const size_t ex_reps = smoke ? 1 : (h <= 3 ? 20 : (h <= 5 ? 5 : 1));
    const size_t dp_reps = smoke ? 5 : 50;

    uint64_t checksum = 0;
    double dp_ns = time_plans_ns(dp, queries, dp_reps, &checksum);
    double ex_ns = time_plans_ns(exhaustive, queries, ex_reps, &checksum);
    double vi_ns = time_plans_ns(vi, queries, dp_reps, &checksum);
    rows.push_back({h, dp_ns, ex_ns, vi_ns, mismatches, vi_divergence, queries.size()});
    std::printf("%8zu %14.0f %14.0f %14.0f %9.1fx %12zu %10zu\n", h, dp_ns, ex_ns, vi_ns,
                ex_ns / dp_ns, mismatches, vi_divergence);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"planner\",\n");
  std::fprintf(f, "  \"schema_version\": 2,\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f,
               "  \"config\": {\"levels\": %zu, \"scenarios\": %zu, \"observations\": %zu, "
               "\"rebuffer_options_s\": [0, 1, 2], \"use_weights\": true, "
               "\"buffer_quantum_s\": 0, \"vi_quantum_s\": %g, \"seed\": %llu, "
               "\"backend\": \"%s\"},\n",
               video.ladder().level_count(), num_scenarios, num_obs, vi.quantum_s(),
               static_cast<unsigned long long>(seed), util::kernel_backend_name());
  std::fprintf(f, "  \"horizons\": [\n");
  double speedup_h5 = 0.0;
  double vi_speedup_h5 = 0.0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    double speedup = r.ex_ns / r.dp_ns;
    if (r.horizon == 5) {
      speedup_h5 = speedup;
      vi_speedup_h5 = r.dp_ns / r.vi_ns;
    }
    std::fprintf(f,
                 "    {\"horizon\": %zu, "
                 "\"dp\": {\"ns_per_decision\": %.0f, \"decisions_per_s\": %.0f}, "
                 "\"exhaustive\": {\"ns_per_decision\": %.0f, \"decisions_per_s\": %.0f}, "
                 "\"vi\": {\"ns_per_decision\": %.0f, \"decisions_per_s\": %.0f}, "
                 "\"speedup\": %.2f, \"decisions_checked\": %zu, "
                 "\"decision_mismatches\": %zu, \"vi_decision_divergence\": %zu}%s\n",
                 r.horizon, r.dp_ns, 1e9 / r.dp_ns, r.ex_ns, 1e9 / r.ex_ns, r.vi_ns,
                 1e9 / r.vi_ns, speedup, r.decisions, r.mismatches, r.vi_divergence,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"summary\": {\"speedup_at_horizon_5\": %.2f, "
                  "\"vi_speedup_over_dp_at_horizon_5\": %.2f, "
                  "\"total_decision_mismatches\": %zu, "
                  "\"total_vi_decision_divergence\": %zu, "
                  "\"dp_arena_bytes\": %zu, \"vi_arena_bytes\": %zu}\n",
               speedup_h5, vi_speedup_h5, total_mismatches, total_vi_divergence,
               dp.arena_bytes(), vi.arena_bytes());
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // The exact DP must agree with the exhaustive planner decision for
  // decision.
  if (total_mismatches > 0) {
    std::fprintf(stderr, "error: %zu decision mismatches between planners\n",
                 total_mismatches);
    return 1;
  }
  return 0;
}
