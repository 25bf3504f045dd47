// Cross-commit pins for the fleet event loop. Two small fleets — the index
// policies {bba .5, whittle .5} at Poisson 1.6/s, and the same fleet under
// bench_resilience's fault load — are reduced to one row holding every
// FleetAggregates field, doubles in exact hex-float form, and the row's
// FNV-1a digest is pinned. The digests were recorded before the event loop's
// segment memos, flat heap and reciprocal harmonic window existed, so any
// change to the loop's arithmetic that moves a single bit fails here. On a
// mismatch the test prints the row, so a deliberate re-pin can diff it.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "core/runner.h"
#include "media/dataset.h"
#include "net/fault.h"
#include "sim/fleet.h"

namespace sensei::sim {
namespace {

void put(std::string& row, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%a", key, value);
  row += buf;
}

void put(std::string& row, const char* key, size_t value) {
  row += ' ';
  row += key;
  row += '=';
  row += std::to_string(value);
}

void put(std::string& row, const char* key, const std::vector<size_t>& values) {
  row += ' ';
  row += key;
  row += '=';
  for (size_t v : values) row += std::to_string(v) + ',';
}

void put(std::string& row, const std::string& key, const util::MergeableAccumulator& acc) {
  put(row, (key + ".n").c_str(), acc.count());
  put(row, (key + ".mean").c_str(), acc.mean());
  put(row, (key + ".var").c_str(), acc.variance());
  put(row, (key + ".min").c_str(), acc.min());
  put(row, (key + ".max").c_str(), acc.max());
}

std::string aggregates_row(const FleetAggregates& a) {
  std::string row = "fleet";
  put(row, "cells", a.cells);
  put(row, "sessions", a.sessions);
  put(row, "chunks", a.chunks);
  put(row, "outages", a.outages);
  put(row, "abandoned", a.abandoned);
  put(row, "sessions_by_policy", a.sessions_by_policy);
  put(row, "completed_by_policy", a.completed_by_policy);
  put(row, "abandoned_by_policy", a.abandoned_by_policy);
  put(row, "timeouts", a.timeouts);
  put(row, "retries", a.retries);
  put(row, "timeout_outages", a.timeout_outages);
  put(row, "failovers", a.failovers);
  put(row, "failed_cells", a.failed_cells);
  put(row, "disrupted", a.disrupted_sessions);
  put(row, "recovered", a.recovered_sessions);
  put(row, "peak_concurrent", a.peak_concurrent);
  put(row, "qoe", a.session_qoe);
  put(row, "bitrate", a.session_bitrate_kbps);
  put(row, "rebuffer", a.session_rebuffer_s);
  put(row, "startup", a.startup_delay_s);
  put(row, "sketch.n", a.qoe_sketch.count());
  for (int k = 0; k <= 100; k += 5) {
    put(row, ("q" + std::to_string(k)).c_str(), a.qoe_sketch.quantile(k / 100.0));
  }
  return row;
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

class FleetPinTest : public ::testing::Test {
 protected:
  FleetPinTest() {
    media::Encoder encoder;
    videos_.push_back(encoder.encode(
        media::SourceVideo::generate("PinA", media::Genre::kSports, 60)));
    videos_.push_back(encoder.encode(
        media::SourceVideo::generate("PinB", media::Genre::kGaming, 80)));
    for (const auto& v : videos_) video_ptrs_.push_back(&v);
  }

  // The index-policy fleet: no planner runs, so the event loop, SharedLink
  // and the engine transitions produce every value.
  static FleetConfig index_dense_config() {
    FleetConfig config;
    config.num_cells = 4;
    config.seed = 18181;
    config.workload.arrivals = ArrivalProcess::kPoisson;
    config.workload.arrival_rate_per_s = 1.6;
    config.workload.arrival_window_s = 120.0;
    config.workload.policy_mix = {{"bba", 0.5}, {"whittle", 0.5}};
    return config;
  }

  // bench_resilience's session recovery and its unit fault load at
  // intensity 2, plus hard failure of a quarter of the cells.
  static FleetConfig faulty_config() {
    FleetConfig config = index_dense_config();
    ResilienceConfig& res = config.player.resilience;
    res.request_timeout_s = 8.0;
    res.max_retries = 3;
    res.backoff_base_s = 0.5;
    res.backoff_factor = 2.0;
    res.backoff_max_s = 4.0;
    res.backoff_jitter_frac = 0.1;
    res.jitter_seed = 4242;
    res.retry_lower_rung = true;
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
    config.faults.trace_faults = unit.scaled(2.0);
    config.faults.cell_failure_fraction = 0.25;
    config.faults.reconnect_delay_s = 2.0;
    config.faults.fallback_scale = 0.5;
    return config;
  }

  FleetAggregates run(const FleetConfig& config) const {
    core::ExperimentRunner runner(2);
    return FleetSimulator(config).run(video_ptrs_, runner);
  }

  std::vector<media::EncodedVideo> videos_;
  std::vector<const media::EncodedVideo*> video_ptrs_;
};

TEST_F(FleetPinTest, IndexPolicyFleetMatchesPinnedDigest) {
  const FleetAggregates agg = run(index_dense_config());
  EXPECT_EQ(agg.sessions, 740u);
  const std::string row = aggregates_row(agg);
  EXPECT_EQ(fnv1a_hex(row), "91da57c6ca46ab30") << row;
}

TEST_F(FleetPinTest, FaultedIndexPolicyFleetMatchesPinnedDigest) {
  const FleetAggregates agg = run(faulty_config());
  // The fault load must bite for this pin to cover the recovery paths.
  EXPECT_GT(agg.timeouts, 0u);
  EXPECT_GT(agg.failed_cells, 0u);
  const std::string row = aggregates_row(agg);
  EXPECT_EQ(fnv1a_hex(row), "446dc34207e01113") << row;
}

}  // namespace
}  // namespace sensei::sim
