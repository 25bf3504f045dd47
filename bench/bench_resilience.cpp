// Resilience bench: QoE and recovery-rate curves as fault intensity rises.
//
// Each sweep point runs the FleetSimulator with one ABR policy, session
// resilience enabled (request timeouts, bounded retries with exponential
// backoff, lower-rung re-requests), and a seeded fault load — trace outages,
// capacity collapses, RTT spikes, plus hard cell failures with failover to a
// degraded fallback link — scaled by an intensity knob. Intensity 0 is the
// control: resilience armed, nothing injected. Emits machine-readable
// BENCH_resilience.json (schema in bench/README.md).
//
//   ./bench_resilience                 full sweep (3 policies x 4 intensities)
//   ./bench_resilience --smoke         reduced sweep for CI (~seconds)
//   ./bench_resilience --out FILE      JSON destination
//   ./bench_resilience --threads N     ExperimentRunner pool size
//   ./bench_resilience --shards N      cells per fan-out block (0 = one per cell)
//   ./bench_resilience --policy SPEC   replace the default policy set with the
//                                      given registry specs (repeatable)
//
// Stdout is a pure function of the flags, as in bench_fleet: one
// "resilience ..." row per sweep point (aggregates printed with %.9g) and
// the JSON path. CI diffs it byte-for-byte across --threads 1/4 and across
// --shards values (fault realizations are pure functions of (config, seed,
// cell), so they must survive any parallel decomposition). The thread and
// shard counts go to stderr.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "net/fault.h"
#include "sim/fleet.h"

using namespace sensei;

namespace {

struct Row {
  std::string policy;
  double intensity = 0.0;
  sim::FleetAggregates agg;
  double recovery_rate = 1.0;
};

}  // namespace

int main(int argc, char** argv) {
  bench::check_flags(argc, argv,
                     {"--out", "--threads", "--shards", "--policy"}, {"--smoke"},
                     "bench_resilience [--smoke] [--out FILE] [--threads N] [--shards N] "
                     "[--policy SPEC]...");
  const bool smoke = bench::smoke_arg(argc, argv);
  const std::string out_path = bench::out_arg(argc, argv, "BENCH_resilience.json");
  const size_t num_shards = bench::count_arg(argc, argv, "--shards", 0);
  core::ExperimentRunner runner(bench::threads_arg(argc, argv));

  std::vector<std::string> policies = bench::policy_specs_arg(argc, argv);
  if (policies.empty()) policies = {"bba", "whittle", "fugu:planner=vi"};
  std::vector<double> intensities = smoke ? std::vector<double>{0.0, 1.0}
                                          : std::vector<double>{0.0, 0.5, 1.0, 2.0};

  // Shared video pool, as bench_fleet streams it.
  media::Encoder encoder;
  std::vector<media::EncodedVideo> videos;
  const media::Genre genres[] = {media::Genre::kSports, media::Genre::kNature,
                                 media::Genre::kGaming, media::Genre::kAnimation};
  for (size_t i = 0; i < 4; ++i) {
    videos.push_back(encoder.encode(
        media::SourceVideo::generate("Resil" + std::to_string(i), genres[i], 120.0)));
  }
  std::vector<const media::EncodedVideo*> video_ptrs;
  for (const auto& v : videos) video_ptrs.push_back(&v);

  // One fleet template; each sweep point swaps the policy and the fault load.
  sim::FleetConfig base;
  base.num_cells = smoke ? 6 : 24;
  base.seed = 77001;
  base.workload.arrivals = sim::ArrivalProcess::kPoisson;
  base.workload.arrival_rate_per_s = 0.3;
  base.workload.arrival_window_s = 240.0;
  // Session resilience: 8 s request timeout, up to 3 retries at one rung
  // lower, 0.5 s..4 s exponential backoff with 10% deterministic jitter.
  base.player.resilience.request_timeout_s = 8.0;
  base.player.resilience.max_retries = 3;
  base.player.resilience.backoff_base_s = 0.5;
  base.player.resilience.backoff_factor = 2.0;
  base.player.resilience.backoff_max_s = 4.0;
  base.player.resilience.backoff_jitter_frac = 0.1;
  base.player.resilience.jitter_seed = 4242;
  base.player.resilience.retry_lower_rung = true;

  // Unit-intensity fault load per cell, scaled by the sweep knob.
  net::RandomFaultSpec unit;
  unit.horizon_s = 400.0;
  unit.mean_outages = 3.0;
  unit.outage_mean_duration_s = 4.0;
  unit.mean_collapses = 2.0;
  unit.collapse_mean_duration_s = 25.0;
  unit.collapse_factor = 0.15;
  unit.mean_rtt_spikes = 3.0;
  unit.rtt_spike_mean_duration_s = 12.0;
  unit.rtt_spike_extra_s = 0.8;

  std::fprintf(stderr, "bench_resilience: %zu thread(s), shards=%zu (0 = one per cell)\n",
               runner.num_threads(), num_shards);

  std::vector<Row> rows;
  for (const std::string& policy : policies) {
    for (double intensity : intensities) {
      sim::FleetConfig config = base;
      config.workload.policy_mix = {{policy, 1.0}};
      config.faults.trace_faults = unit.scaled(intensity);
      config.faults.cell_failure_fraction = std::min(1.0, 0.25 * intensity);
      config.faults.reconnect_delay_s = 2.0;
      config.faults.fallback_scale = 0.5;

      sim::FleetSimulator fleet(config);
      Row row;
      row.policy = policy;
      row.intensity = intensity;
      row.agg = fleet.run(video_ptrs, runner, num_shards);
      const sim::FleetAggregates& a = row.agg;
      // Recovery rate: of the sessions that hit >= 1 timeout or failover,
      // the fraction that still did not end in an outage. 1 when nothing
      // was disrupted (nothing to recover from).
      row.recovery_rate =
          a.disrupted_sessions > 0
              ? static_cast<double>(a.recovered_sessions) /
                    static_cast<double>(a.disrupted_sessions)
              : 1.0;

      std::printf(
          "resilience policy=%s intensity=%.9g cells=%zu sessions=%zu chunks=%zu "
          "outages=%zu timeout_outages=%zu abandoned=%zu timeouts=%zu retries=%zu "
          "failovers=%zu failed_cells=%zu disrupted=%zu recovered=%zu "
          "recovery_rate=%.9g qoe_mean=%.9g qoe_p50=%.9g qoe_p90=%.9g "
          "rebuffer=%.9g startup=%.9g\n\n",
          policy.c_str(), intensity, a.cells, a.sessions, a.chunks, a.outages,
          a.timeout_outages, a.abandoned, a.timeouts, a.retries, a.failovers,
          a.failed_cells, a.disrupted_sessions, a.recovered_sessions,
          row.recovery_rate, a.session_qoe.mean(), a.qoe_sketch.quantile(0.5),
          a.qoe_sketch.quantile(0.9), a.session_rebuffer_s.mean(),
          a.startup_delay_s.mean());
      rows.push_back(std::move(row));
    }
  }

  // ---- JSON ---------------------------------------------------------------
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  size_t total_sessions = 0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"resilience\",\n");
  std::fprintf(f, "  \"schema_version\": 2,\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f,
               "  \"config\": {\"threads\": %zu, \"shards\": %zu, \"cells\": %zu, "
               "\"request_timeout_s\": %.3f, \"max_retries\": %zu, "
               "\"reconnect_delay_s\": %.3f, \"fallback_scale\": %.3f},\n",
               runner.num_threads(), num_shards, base.num_cells,
               base.player.resilience.request_timeout_s,
               base.player.resilience.max_retries, 2.0, 0.5);
  std::fprintf(f, "  \"sweeps\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const sim::FleetAggregates& a = row.agg;
    total_sessions += a.sessions;
    std::fprintf(
        f,
        "    {\"policy\": \"%s\", \"intensity\": %.3f, \"cells\": %zu, "
        "\"sessions\": %zu, \"chunks\": %zu, \"outages\": %zu, "
        "\"timeout_outages\": %zu, \"abandoned\": %zu, \"timeouts\": %zu, "
        "\"retries\": %zu, \"failovers\": %zu, \"failed_cells\": %zu, "
        "\"disrupted_sessions\": %zu, \"recovered_sessions\": %zu, "
        "\"recovery_rate\": %.6f, \"qoe_mean\": %.6f, \"qoe_p50\": %.6f, "
        "\"qoe_p90\": %.6f, \"rebuffer_mean_s\": %.6f, \"startup_mean_s\": %.6f}%s\n",
        row.policy.c_str(), row.intensity, a.cells, a.sessions, a.chunks, a.outages,
        a.timeout_outages, a.abandoned, a.timeouts, a.retries, a.failovers,
        a.failed_cells, a.disrupted_sessions, a.recovered_sessions, row.recovery_rate,
        a.session_qoe.mean(), a.qoe_sketch.quantile(0.5), a.qoe_sketch.quantile(0.9),
        a.session_rebuffer_s.mean(), a.startup_delay_s.mean(),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"summary\": {\"policies\": %zu, \"intensities\": %zu, "
               "\"total_sessions\": %zu}\n",
               policies.size(), intensities.size(), total_sessions);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s (total sessions %zu)\n", out_path.c_str(), total_sessions);
  return 0;
}
