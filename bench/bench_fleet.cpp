// Fleet-scale bench: the sharded multi-bottleneck FleetSimulator's
// aggregates on city- to million-session scenarios, as determinism and
// accuracy rows. Emits machine-readable BENCH_fleet.json (schema in
// bench/README.md). Speed is measured by benchmark/, not here.
//
//   ./bench_fleet                    full sweep, headline >= 1,000,000 sessions
//   ./bench_fleet --smoke            reduced sweep for CI (~seconds)
//   ./bench_fleet --out FILE         JSON destination
//   ./bench_fleet --threads N        ExperimentRunner pool size
//   ./bench_fleet --shards N         cells per fan-out block (0 = one per cell)
//   ./bench_fleet --policy SPEC      replace the workload's policy mix with the
//                                    given registry specs (repeatable, equal
//                                    weights) — see abr/registry.h
//
// Stdout is a pure function of the flags: one "fleet ..." row per scenario
// (aggregates printed with %.9g) and the JSON path. CI diffs it
// byte-for-byte across --threads 1/4 and across --shards values (the
// fleet's bit-identity contract, also pinned by tests/test_fleet.cpp). The
// thread and shard counts go to stderr.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "sim/fleet.h"

using namespace sensei;

namespace {

struct Scenario {
  std::string name;
  sim::FleetConfig config;
};

struct Row {
  std::string name;
  sim::FleetAggregates agg;
};

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv,
                     {"--out", "--threads", "--shards", "--policy"}, {"--smoke"},
                     "bench_fleet [--smoke] [--out FILE] [--threads N] [--shards N] "
                     "[--policy SPEC]...");
  const bool smoke = bench::smoke_arg(argc, argv);
  const std::string out_path = bench::out_arg(argc, argv, "BENCH_fleet.json");
  // `--policy SPEC`... replaces the default workload mix (equal weights).
  std::vector<sim::PolicyMixEntry> mix_override;
  for (const std::string& spec : bench::policy_specs_arg(argc, argv)) {
    mix_override.push_back({spec, 1.0});
  }
  const size_t num_shards = bench::count_arg(argc, argv, "--shards", 0);
  core::ExperimentRunner runner(bench::threads_arg(argc, argv));

  // Shared video pool: four genres, 120 s each (30 chunks), the same shape
  // the multisession bench streams.
  media::Encoder encoder;
  std::vector<media::EncodedVideo> videos;
  const media::Genre genres[] = {media::Genre::kSports, media::Genre::kNature,
                                 media::Genre::kGaming, media::Genre::kAnimation};
  for (size_t i = 0; i < 4; ++i) {
    videos.push_back(encoder.encode(
        media::SourceVideo::generate("Fleet" + std::to_string(i), genres[i], 120.0)));
  }
  std::vector<const media::EncodedVideo*> video_ptrs;
  for (const auto& v : videos) video_ptrs.push_back(&v);

  // Scenarios. Sessions per cell ~ arrival_rate * window (diurnal thins
  // below that); the headline scenario's cell count is sized so the fleet
  // streams >= 1,000,000 sessions end to end.
  std::vector<Scenario> scenarios;
  auto add = [&](const char* name, size_t cells, sim::ArrivalProcess arrivals,
                 double rate, double window_s) {
    Scenario s;
    s.name = name;
    s.config.num_cells = cells;
    s.config.seed = 90210;
    s.config.workload.arrivals = arrivals;
    s.config.workload.arrival_rate_per_s = rate;
    s.config.workload.arrival_window_s = window_s;
    if (!mix_override.empty()) s.config.workload.policy_mix = mix_override;
    scenarios.push_back(std::move(s));
  };
  if (smoke) {
    add("smoke-poisson", 6, sim::ArrivalProcess::kPoisson, 0.3, 120.0);
    add("smoke-diurnal", 8, sim::ArrivalProcess::kDiurnal, 0.5, 150.0);
  } else {
    add("city", 64, sim::ArrivalProcess::kPoisson, 0.5, 600.0);
    add("region", 512, sim::ArrivalProcess::kDiurnal, 0.5, 600.0);
    // ~480 sessions/cell * 2200 cells ~ 1.05M sessions.
    add("million", 2200, sim::ArrivalProcess::kPoisson, 0.8, 600.0);
  }

  std::fprintf(stderr, "bench_fleet: %zu thread(s), shards=%zu (0 = one per cell)\n",
               runner.num_threads(), num_shards);

  std::vector<Row> rows;
  std::vector<std::string> policy_specs;  // pool layout (same for every scenario)
  for (const Scenario& scenario : scenarios) {
    sim::FleetSimulator fleet(scenario.config);
    policy_specs = fleet.policy_specs();
    Row row;
    row.name = scenario.name;
    row.agg = fleet.run(video_ptrs, runner, num_shards);

    const sim::FleetAggregates& a = row.agg;
    // Per-pool session counts, keyed by canonical registry spec: the specs
    // are a pure function of the workload config, so including them keeps
    // the row self-describing without breaking cross-thread/shard diffs.
    std::string by_policy;
    // Typed outcome split per pool: completed/abandoned counts (outages are
    // the per-pool remainder).
    std::string split_policy;
    for (size_t k = 0; k < policy_specs.size(); ++k) {
      if (k > 0) {
        by_policy += ' ';
        split_policy += ' ';
      }
      by_policy += policy_specs[k] + '=' + std::to_string(a.sessions_by_policy[k]);
      split_policy += policy_specs[k] + '=' + std::to_string(a.completed_by_policy[k]) +
                      '/' + std::to_string(a.abandoned_by_policy[k]);
    }
    // Determinism row: aggregates only, full precision. CI diffs these
    // across thread and shard counts.
    std::printf(
        "fleet name=%s cells=%zu sessions=%zu chunks=%zu outages=%zu abandoned=%zu "
        "peak=%zu policies=[%s] qoe_mean=%.9g qoe_p50=%.9g qoe_p90=%.9g "
        "qoe_p99=%.9g bitrate=%.9g rebuffer=%.9g startup=%.9g "
        "completed/abandoned=[%s] timeouts=%zu retries=%zu timeout_outages=%zu "
        "failovers=%zu failed_cells=%zu disrupted=%zu recovered=%zu\n\n",
        row.name.c_str(), a.cells, a.sessions, a.chunks, a.outages, a.abandoned,
        a.peak_concurrent, by_policy.c_str(), a.session_qoe.mean(),
        a.qoe_sketch.quantile(0.5), a.qoe_sketch.quantile(0.9), a.qoe_sketch.quantile(0.99),
        a.session_bitrate_kbps.mean(), a.session_rebuffer_s.mean(),
        a.startup_delay_s.mean(), split_policy.c_str(), a.timeouts, a.retries,
        a.timeout_outages, a.failovers, a.failed_cells, a.disrupted_sessions,
        a.recovered_sessions);
    rows.push_back(std::move(row));
  }

  // ---- JSON ---------------------------------------------------------------
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  size_t total_sessions = 0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"fleet\",\n");
  std::fprintf(f, "  \"schema_version\": 5,\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"config\": {\"threads\": %zu, \"shards\": %zu},\n",
               runner.num_threads(), num_shards);
  std::fprintf(f, "  \"scenarios\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const sim::FleetAggregates& a = row.agg;
    total_sessions += a.sessions;
    // *_by_policy keys are the canonical registry specs of the mix.
    std::string by_policy_json, completed_json, abandoned_json;
    for (size_t k = 0; k < policy_specs.size(); ++k) {
      if (k > 0) {
        by_policy_json += ", ";
        completed_json += ", ";
        abandoned_json += ", ";
      }
      by_policy_json += "\"" + policy_specs[k] +
                        "\": " + std::to_string(a.sessions_by_policy[k]);
      completed_json += "\"" + policy_specs[k] +
                        "\": " + std::to_string(a.completed_by_policy[k]);
      abandoned_json += "\"" + policy_specs[k] +
                        "\": " + std::to_string(a.abandoned_by_policy[k]);
    }
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"cells\": %zu, \"sessions\": %zu, \"chunks\": %zu, "
        "\"outages\": %zu, \"abandoned\": %zu, \"peak_concurrent\": %zu, "
        "\"sessions_by_policy\": {%s}, "
        "\"completed_by_policy\": {%s}, \"abandoned_by_policy\": {%s}, "
        "\"timeouts\": %zu, \"retries\": %zu, \"timeout_outages\": %zu, "
        "\"failovers\": %zu, \"failed_cells\": %zu, \"disrupted_sessions\": %zu, "
        "\"recovered_sessions\": %zu, "
        "\"qoe_mean\": %.6f, \"qoe_p50\": %.6f, \"qoe_p90\": %.6f, \"qoe_p99\": %.6f, "
        "\"bitrate_mean_kbps\": %.3f, \"rebuffer_mean_s\": %.6f, "
        "\"startup_mean_s\": %.6f}%s\n",
        row.name.c_str(), a.cells, a.sessions, a.chunks, a.outages, a.abandoned,
        a.peak_concurrent, by_policy_json.c_str(), completed_json.c_str(),
        abandoned_json.c_str(), a.timeouts, a.retries, a.timeout_outages, a.failovers,
        a.failed_cells, a.disrupted_sessions, a.recovered_sessions, a.session_qoe.mean(),
        a.qoe_sketch.quantile(0.5), a.qoe_sketch.quantile(0.9), a.qoe_sketch.quantile(0.99),
        a.session_bitrate_kbps.mean(), a.session_rebuffer_s.mean(),
        a.startup_delay_s.mean(), i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"summary\": {\"total_sessions\": %zu}\n", total_sessions);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (total sessions %zu)\n", out_path.c_str(), total_sessions);
  return 0;
}
