// Fleet simulator gates (sim/fleet.h, sim/workload.h):
//  - the workload generator's statistical and determinism properties;
//  - fleet aggregates bit-identical across ExperimentRunner thread counts
//    and shard counts (the headline contract), including a vi-planner fleet
//    whose cells all share one run-wide PlanBatch across threads;
//  - a single-cell fleet reproducing, session for session, what the plain
//    sim::Simulator computes over the identical arrival list — proving the
//    pooled-engine event loop is a recycling of the reference loop, not a
//    different simulator.
#include "sim/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "abr/registry.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "sim/session_engine.h"
#include "sim/simulator.h"

namespace sensei::sim {
namespace {

constexpr size_t kNoLimit = static_cast<size_t>(-1);

// ---- workload generator -----------------------------------------------------

TEST(Workload, PoissonStreamIsOrderedSeededAndRateShaped) {
  WorkloadConfig config;
  config.arrival_rate_per_s = 2.0;
  config.arrival_window_s = 500.0;
  config.num_videos = 3;

  WorkloadGenerator gen_a(config, 42);
  WorkloadGenerator gen_b(config, 42);
  WorkloadGenerator gen_c(config, 43);

  SessionArrival a, b, c;
  double prev = 0.0;
  size_t count = 0;
  bool any_seed_difference = false;
  while (gen_a.next(&a)) {
    ASSERT_TRUE(gen_b.next(&b));
    // Same seed -> identical stream, field for field.
    ASSERT_EQ(a.start_s, b.start_s);
    ASSERT_EQ(a.video_index, b.video_index);
    ASSERT_EQ(a.policy_index, b.policy_index);
    ASSERT_EQ(a.chunk_limit, b.chunk_limit);
    if (gen_c.next(&c) && c.start_s != a.start_s) any_seed_difference = true;
    ASSERT_GE(a.start_s, prev);
    ASSERT_LT(a.start_s, config.arrival_window_s);
    ASSERT_LT(a.video_index, config.num_videos);
    prev = a.start_s;
    ++count;
  }
  EXPECT_FALSE(gen_b.next(&b));
  EXPECT_TRUE(any_seed_difference);
  EXPECT_EQ(gen_a.generated(), count);
  // ~1000 expected arrivals; 5 sigma is ~160.
  EXPECT_NEAR(static_cast<double>(count), 1000.0, 160.0);
}

TEST(Workload, DiurnalThinsTowardTheTrough) {
  WorkloadConfig config;
  config.arrival_rate_per_s = 2.0;
  config.arrival_window_s = 600.0;
  config.diurnal_period_s = 600.0;
  config.diurnal_trough = 0.1;

  config.arrivals = ArrivalProcess::kDiurnal;
  WorkloadGenerator diurnal(config, 7);
  SessionArrival a;
  size_t total = 0, first_quarter = 0, mid = 0;
  while (diurnal.next(&a)) {
    ++total;
    if (a.start_s < 150.0) ++first_quarter;
    if (a.start_s >= 225.0 && a.start_s < 375.0) ++mid;
  }
  // The mean acceptance over a full period is (trough + 1) / 2 = 0.55 of
  // the peak-rate candidates; and the curve troughs at t=0, peaks at T/2.
  EXPECT_NEAR(static_cast<double>(total), 0.55 * 1200.0, 180.0);
  EXPECT_GT(mid, first_quarter * 2);
}

TEST(Workload, AbandonmentLimitsAndPolicyMix) {
  WorkloadConfig config;
  config.arrival_rate_per_s = 1.0;
  config.arrival_window_s = 400.0;
  config.abandon_fraction = 1.0;
  config.mean_abandon_chunks = 10.0;
  // Zero-weight entries are never drawn: every arrival is the middle entry.
  config.policy_mix = {{"bba", 0.0}, {"rate_based", 1.0}, {"fugu:planner=vi", 0.0}};

  WorkloadGenerator gen(config, 9);
  ASSERT_EQ(gen.canonical_policy_specs().size(), 3u);
  EXPECT_EQ(gen.canonical_policy_specs()[1],
            abr::PolicyRegistry::instance().canonical_string("rate_based"));
  SessionArrival a;
  double limit_sum = 0.0;
  size_t count = 0;
  while (gen.next(&a)) {
    ASSERT_NE(a.chunk_limit, kNoLimit);
    ASSERT_GE(a.chunk_limit, 1u);
    ASSERT_EQ(a.policy_index, 1u);
    limit_sum += static_cast<double>(a.chunk_limit);
    ++count;
  }
  ASSERT_GT(count, 100u);
  EXPECT_NEAR(limit_sum / static_cast<double>(count), config.mean_abandon_chunks, 3.0);

  config.abandon_fraction = 0.0;
  WorkloadGenerator keeper(config, 9);
  while (keeper.next(&a)) ASSERT_EQ(a.chunk_limit, kNoLimit);
}

TEST(Workload, TraceIsIndependentOfArrivalDraws) {
  WorkloadConfig config;
  WorkloadGenerator fresh(config, 123);
  net::ThroughputTrace before = fresh.make_trace("t");
  SessionArrival a;
  while (fresh.next(&a)) {
  }
  net::ThroughputTrace after = fresh.make_trace("t");
  ASSERT_EQ(before.sample_count(), after.sample_count());
  for (size_t i = 0; i < before.sample_count(); ++i) {
    ASSERT_EQ(before.samples_kbps()[i], after.samples_kbps()[i]);
  }
  // A different seed reshapes the network.
  net::ThroughputTrace other = WorkloadGenerator(config, 124).make_trace("t");
  bool differs = other.sample_count() != before.sample_count();
  for (size_t i = 0; !differs && i < before.sample_count(); ++i) {
    differs = before.samples_kbps()[i] != other.samples_kbps()[i];
  }
  EXPECT_TRUE(differs);
}

TEST(Workload, RejectsNonsenseConfigs) {
  WorkloadConfig bad;
  bad.arrival_rate_per_s = 0.0;
  EXPECT_THROW(WorkloadGenerator(bad, 1), std::runtime_error);
  bad = WorkloadConfig();
  bad.policy_mix = {{"bba", 0.0}, {"rate_based", 0.0}};
  EXPECT_THROW(WorkloadGenerator(bad, 1), std::runtime_error);
  bad = WorkloadConfig();
  bad.policy_mix.clear();
  EXPECT_THROW(WorkloadGenerator(bad, 1), std::runtime_error);
  bad = WorkloadConfig();
  bad.policy_mix = {{"no-such-policy", 1.0}};
  EXPECT_THROW(WorkloadGenerator(bad, 1), std::runtime_error);
  bad = WorkloadConfig();
  bad.policy_mix = {{"bba:bogus_key=1", 1.0}};
  EXPECT_THROW(WorkloadGenerator(bad, 1), std::runtime_error);
  bad = WorkloadConfig();
  bad.diurnal_trough = 1.5;
  EXPECT_THROW(WorkloadGenerator(bad, 1), std::runtime_error);
  bad = WorkloadConfig();
  bad.trace_mean_kbps_max = bad.trace_mean_kbps_min / 2.0;
  EXPECT_THROW(WorkloadGenerator(bad, 1), std::runtime_error);
}

// ---- fleet ------------------------------------------------------------------

class FleetTest : public ::testing::Test {
 protected:
  FleetTest() {
    media::Encoder encoder;
    videos_.push_back(encoder.encode(
        media::SourceVideo::generate("FleetA", media::Genre::kSports, 60)));
    videos_.push_back(encoder.encode(
        media::SourceVideo::generate("FleetB", media::Genre::kNature, 80)));
    for (const auto& v : videos_) video_ptrs_.push_back(&v);
  }

  FleetConfig small_config() const {
    FleetConfig config;
    config.num_cells = 6;
    config.seed = 2024;
    config.workload.arrival_rate_per_s = 0.25;
    config.workload.arrival_window_s = 120.0;
    config.workload.abandon_fraction = 0.3;
    config.workload.mean_abandon_chunks = 8.0;
    return config;
  }

  std::vector<media::EncodedVideo> videos_;
  std::vector<const media::EncodedVideo*> video_ptrs_;
};

TEST_F(FleetTest, AggregatesAreConsistent) {
  FleetConfig config = small_config();
  core::ExperimentRunner runner(2);
  FleetAggregates agg = FleetSimulator(config).run(video_ptrs_, runner);

  EXPECT_EQ(agg.cells, config.num_cells);
  EXPECT_GT(agg.sessions, 20u);
  // One count per unique canonical spec in the default mix, summing to the
  // session total.
  EXPECT_EQ(agg.sessions_by_policy.size(), config.workload.policy_mix.size());
  size_t by_policy_sum = 0;
  for (size_t n : agg.sessions_by_policy) by_policy_sum += n;
  EXPECT_EQ(by_policy_sum, agg.sessions);
  EXPECT_GT(agg.abandoned, 0u);
  EXPECT_GE(agg.peak_concurrent, 1u);
  EXPECT_GT(agg.chunks, agg.sessions);  // nearly every session streams chunks
  EXPECT_LE(agg.session_qoe.count(), agg.sessions);
  EXPECT_EQ(agg.session_qoe.count(), agg.qoe_sketch.count());
  EXPECT_GT(agg.session_bitrate_kbps.mean(), 0.0);
  EXPECT_GE(agg.qoe_sketch.quantile(0.9), agg.qoe_sketch.quantile(0.1));
}

// EXPECT_EQ on doubles: bit-identity, not tolerance, is the contract.
void expect_same_aggregates(const FleetAggregates& agg, const FleetAggregates& reference,
                            const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(agg.sessions, reference.sessions);
  EXPECT_EQ(agg.chunks, reference.chunks);
  EXPECT_EQ(agg.outages, reference.outages);
  EXPECT_EQ(agg.abandoned, reference.abandoned);
  EXPECT_EQ(agg.sessions_by_policy, reference.sessions_by_policy);
  EXPECT_EQ(agg.peak_concurrent, reference.peak_concurrent);
  EXPECT_EQ(agg.session_qoe.mean(), reference.session_qoe.mean());
  EXPECT_EQ(agg.session_qoe.variance(), reference.session_qoe.variance());
  EXPECT_EQ(agg.session_bitrate_kbps.mean(), reference.session_bitrate_kbps.mean());
  EXPECT_EQ(agg.session_rebuffer_s.mean(), reference.session_rebuffer_s.mean());
  EXPECT_EQ(agg.startup_delay_s.mean(), reference.startup_delay_s.mean());
  for (double q : {0.5, 0.9, 0.99}) {
    EXPECT_EQ(agg.qoe_sketch.quantile(q), reference.qoe_sketch.quantile(q)) << "q=" << q;
  }
}

TEST_F(FleetTest, AggregatesBitIdenticalAcrossThreadsAndShards) {
  FleetConfig config = small_config();
  FleetSimulator fleet(config);

  core::ExperimentRunner serial(1);
  FleetAggregates reference = fleet.run(video_ptrs_, serial, 1);

  core::ExperimentRunner parallel(4);
  for (size_t shards : {1u, 2u, 3u, 6u, 99u}) {
    expect_same_aggregates(fleet.run(video_ptrs_, parallel, shards), reference,
                           "shards=" + std::to_string(shards));
  }
}

// A vi-only fleet: every session plans through the run-wide PlanBatch that
// all cells and worker threads share. Which thread creates a table or fills
// a cell first depends on scheduling, so this pins that it never shows:
// aggregates match across threads and shards, and match a run in which
// every planner keeps private tables.
TEST_F(FleetTest, SharedPlanBatchBitIdenticalAcrossThreadsShardsAndUnshared) {
  FleetConfig config = small_config();
  config.num_cells = 24;
  config.workload.arrival_rate_per_s = 0.2;
  config.workload.arrival_window_s = 60.0;
  config.workload.policy_mix = {{"fugu:planner=vi", 1.0}};

  FleetConfig unshared_config = config;
  unshared_config.player.share_plan_tables = false;
  core::ExperimentRunner serial(1);
  FleetAggregates reference = FleetSimulator(unshared_config).run(video_ptrs_, serial);
  ASSERT_GT(reference.sessions, 100u);

  FleetSimulator fleet(config);
  for (size_t threads : {1u, 4u}) {
    core::ExperimentRunner runner(threads);
    for (size_t shards : {0u, 1u, 5u}) {
      expect_same_aggregates(fleet.run(video_ptrs_, runner, shards), reference,
                             "threads=" + std::to_string(threads) +
                                 " shards=" + std::to_string(shards));
    }
  }
}

// Per-session digest captured from either loop for the equivalence gate.
struct SessionDigest {
  size_t chunks = 0;
  bool outage = false;
  double dl_checksum_s = 0.0;  // sum of download times: a bit-level digest
  double bitrate_sum_kbps = 0.0;

  bool operator==(const SessionDigest& other) const {
    return chunks == other.chunks && outage == other.outage &&
           dl_checksum_s == other.dl_checksum_s && bitrate_sum_kbps == other.bitrate_sum_kbps;
  }
};

SessionDigest digest_records(const std::vector<ChunkRecord>& recs, bool outage) {
  SessionDigest d;
  d.chunks = recs.size();
  d.outage = outage;
  for (const ChunkRecord& r : recs) {
    d.dl_checksum_s += r.download_time_s;
    d.bitrate_sum_kbps += r.bitrate_kbps;
  }
  return d;
}

TEST_F(FleetTest, SingleCellMatchesSimulatorOverIdenticalArrivals) {
  // One cell, fixed link scale so the reference can rebuild the bottleneck.
  FleetConfig config;
  config.num_cells = 1;
  config.seed = 77;
  config.link_scale = 6.0;
  config.workload.arrival_rate_per_s = 0.3;
  config.workload.arrival_window_s = 100.0;
  config.workload.abandon_fraction = 0.4;
  config.workload.mean_abandon_chunks = 6.0;

  // Fleet run, capturing each finished session keyed by its start time
  // (continuous exponential gaps: unique with probability 1).
  std::map<double, SessionDigest> fleet_sessions;
  config.on_session_done = [&](size_t cell, const SessionArrival& arrival,
                               const SessionEngine& engine) {
    ASSERT_EQ(cell, 0u);
    fleet_sessions[arrival.start_s] =
        digest_records(engine.records(), engine.outcome() == SessionOutcome::kOutage);
  };
  core::ExperimentRunner runner(1);
  FleetAggregates agg = FleetSimulator(config).run(video_ptrs_, runner);
  ASSERT_EQ(agg.sessions, fleet_sessions.size());
  ASSERT_GT(agg.sessions, 10u);

  // Reference: regenerate the identical arrival list with the cell's seed
  // and drive it through the plain Simulator on the identical bottleneck.
  WorkloadConfig workload = config.workload;
  workload.num_videos = video_ptrs_.size();
  uint64_t cell_seed = core::ExperimentRunner::task_seed(config.seed, 0);
  WorkloadGenerator gen(workload, cell_seed);
  net::ThroughputTrace trace =
      gen.make_trace("fleet-cell-0").scaled(config.link_scale, "fleet-cell-0");

  std::vector<SessionArrival> arrivals;
  SessionArrival a;
  while (gen.next(&a)) arrivals.push_back(a);
  ASSERT_EQ(arrivals.size(), agg.sessions);

  // Reference policies come from the same registry specs the fleet pools —
  // fresh instances per session, so this also exercises the pooled-vs-fresh
  // equivalence of begin_session() resets.
  const std::vector<std::string>& mix_specs = gen.canonical_policy_specs();
  std::vector<std::unique_ptr<AbrPolicy>> policies;
  std::vector<SessionSpec> specs;
  for (const SessionArrival& arrival : arrivals) {
    policies.push_back(abr::make_policy(mix_specs[arrival.policy_index]));
    SessionSpec spec;
    spec.video = video_ptrs_[arrival.video_index];
    spec.policy = policies.back().get();
    spec.start_s = arrival.start_s;
    spec.chunk_limit = arrival.chunk_limit;
    specs.push_back(spec);
  }
  auto results = Simulator(config.player).run(specs, trace, LinkMode::kShared);

  ASSERT_EQ(results.size(), fleet_sessions.size());
  for (size_t i = 0; i < results.size(); ++i) {
    auto it = fleet_sessions.find(arrivals[i].start_s);
    ASSERT_NE(it, fleet_sessions.end()) << "session " << i;
    SessionDigest expected = digest_records(
        results[i].session.chunks(),
        results[i].session.outcome() == SessionOutcome::kOutage);
    EXPECT_TRUE(it->second == expected)
        << "session " << i << ": chunks " << it->second.chunks << "/" << expected.chunks
        << " dl " << it->second.dl_checksum_s << "/" << expected.dl_checksum_s;
  }
}

}  // namespace
}  // namespace sensei::sim
