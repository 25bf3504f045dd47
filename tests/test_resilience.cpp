// Resilience gates: session recovery (sim/session_engine.cpp timeout /
// retry / backoff states), SharedLink::abort, fleet cell failover, typed
// outcome causes and LivelockError, and the determinism contracts:
//  - fault realizations and fleet aggregates bit-identical across
//    ExperimentRunner thread counts and shard counts;
//  - faults disabled => aggregates bit-identical to the pinned pre-fault
//    baseline (the PR-over-PR no-regression gate);
//  - a seeded fault load from which at least a pinned fraction of disrupted
//    sessions recover.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "abr/registry.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "net/fault.h"
#include "net/shared_link.h"
#include "net/trace.h"
#include "sim/fleet.h"
#include "sim/player.h"
#include "sim/session_engine.h"
#include "sim/simulator.h"
#include "sim/timeline.h"

namespace sensei::sim {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

net::FaultEvent make_event(net::FaultKind kind, double start, double duration,
                           double magnitude) {
  net::FaultEvent e;
  e.kind = kind;
  e.start_s = start;
  e.duration_s = duration;
  e.magnitude = magnitude;
  return e;
}

PlayerConfig resilient_config() {
  PlayerConfig config;
  config.resilience.request_timeout_s = 2.0;
  config.resilience.max_retries = 20;
  config.resilience.backoff_base_s = 0.25;
  config.resilience.backoff_factor = 2.0;
  config.resilience.backoff_max_s = 2.0;
  return config;
}

class ResilienceTest : public ::testing::Test {
 protected:
  ResilienceTest() {
    media::Encoder encoder;
    video_ = std::make_unique<media::EncodedVideo>(encoder.encode(
        media::SourceVideo::generate("ResilVid", media::Genre::kSports, 60)));
  }

  // One session through the Simulator (the reference driver for both link
  // modes), returning its SessionResult.
  SessionResult run_one(const PlayerConfig& config, const net::ThroughputTrace& trace,
                        LinkMode mode, const net::FaultPlan* faults = nullptr,
                        size_t chunk_limit = static_cast<size_t>(-1)) {
    auto policy = abr::make_policy("bba");
    SessionSpec spec;
    spec.video = video_.get();
    spec.policy = policy.get();
    spec.chunk_limit = chunk_limit;
    auto results = Simulator(config).run({spec}, trace, mode, faults);
    return std::move(results[0].session);
  }

  std::unique_ptr<media::EncodedVideo> video_;
};

// ---- engine recovery --------------------------------------------------------

TEST_F(ResilienceTest, DedicatedSessionRetriesThroughAnOutageAndRecovers) {
  // Plenty of capacity outside a 20 s hard outage; a 2 s attempt budget
  // times out inside the window, bounded retries with backoff carry the
  // session across it.
  net::ThroughputTrace trace("steady", std::vector<double>(60, 12000.0), 1.0);
  net::FaultPlan plan;
  plan.add(make_event(net::FaultKind::kOutage, 6.0, 20.0, 0.0));
  net::ThroughputTrace faulted = plan.apply_to_trace(trace);

  SessionResult result = run_one(resilient_config(), faulted, LinkMode::kDedicated);
  EXPECT_EQ(result.outcome(), SessionOutcome::kCompleted);
  EXPECT_EQ(result.outcome_cause(), OutcomeCause::kNone);
  EXPECT_EQ(result.failed_chunk(), video_->num_chunks());
  ASSERT_EQ(result.chunks().size(), video_->num_chunks());

  ASSERT_NE(result.timeline(), nullptr);
  std::string why;
  EXPECT_TRUE(result.timeline()->check_invariants(&why)) << why;
  // The chunk straddling the outage carries its recovery spans: every timed
  // out attempt wastes exactly the request timeout, and the retry count,
  // waste, and backoff all land on the delivering chunk's trajectory.
  size_t retried_chunks = 0, total_retries = 0;
  for (const ChunkTrajectory& c : result.timeline()->chunks()) {
    if (c.retries == 0) {
      EXPECT_EQ(c.retry_wasted_s, 0.0);
      EXPECT_EQ(c.backoff_s, 0.0);
      continue;
    }
    ++retried_chunks;
    total_retries += c.retries;
    EXPECT_EQ(c.retry_wasted_s, static_cast<double>(c.retries) * 2.0);
    EXPECT_GT(c.backoff_s, 0.0);
  }
  EXPECT_GE(retried_chunks, 1u);
  // ~20 s outage / (2 s timeout + <=2 s backoff) -> at least 5 attempts.
  EXPECT_GE(total_retries, 5u);
}

TEST_F(ResilienceTest, RetryBudgetExhaustionIsATypedTimeoutOutage) {
  // A finite trace that simply ends: past 12 s the link is dead forever.
  net::ThroughputTrace trace("dies", std::vector<double>(12, 12000.0), 1.0,
                             /*finite=*/true);
  PlayerConfig config = resilient_config();
  config.resilience.max_retries = 3;

  SessionResult result = run_one(config, trace, LinkMode::kDedicated);
  EXPECT_EQ(result.outcome(), SessionOutcome::kOutage);
  EXPECT_EQ(result.outcome_cause(), OutcomeCause::kTimeoutBudget);
  ASSERT_LT(result.failed_chunk(), video_->num_chunks());
  EXPECT_EQ(result.failed_chunk(), result.chunks().size());
  ASSERT_NE(result.timeline(), nullptr);
  std::string why;
  EXPECT_TRUE(result.timeline()->check_invariants(&why)) << why;

  // Without resilience the same dead link is an immediate kDeadLink outage,
  // at the same chunk.
  SessionResult bare = run_one(PlayerConfig(), trace, LinkMode::kDedicated);
  EXPECT_EQ(bare.outcome(), SessionOutcome::kOutage);
  EXPECT_EQ(bare.outcome_cause(), OutcomeCause::kDeadLink);
  EXPECT_EQ(bare.failed_chunk(), result.failed_chunk());
}

TEST_F(ResilienceTest, SharedSessionsAbortTimedOutTransfersAndRecover) {
  net::ThroughputTrace trace("steady", std::vector<double>(60, 9000.0), 1.0);
  net::FaultPlan plan;
  plan.add(make_event(net::FaultKind::kOutage, 5.0, 15.0, 0.0));
  net::ThroughputTrace faulted = plan.apply_to_trace(trace);

  PlayerConfig config = resilient_config();
  std::vector<std::unique_ptr<AbrPolicy>> policies;
  std::vector<SessionSpec> specs;
  for (size_t k = 0; k < 3; ++k) {
    policies.push_back(abr::make_policy("bba"));
    SessionSpec spec;
    spec.video = video_.get();
    spec.policy = policies.back().get();
    spec.start_s = static_cast<double>(k) * 1.5;
    specs.push_back(spec);
  }
  auto results = Simulator(config).run(specs, faulted, LinkMode::kShared);
  size_t total_retries = 0;
  for (const auto& r : results) {
    EXPECT_EQ(r.session.outcome(), SessionOutcome::kCompleted);
    EXPECT_EQ(r.session.outcome_cause(), OutcomeCause::kNone);
    ASSERT_NE(r.session.timeline(), nullptr);
    std::string why;
    EXPECT_TRUE(r.session.timeline()->check_invariants(&why)) << why;
    for (const ChunkTrajectory& c : r.session.timeline()->chunks()) {
      total_retries += c.retries;
    }
  }
  // All three sessions sat inside the outage; each must have timed out at
  // least once (shared-link aborts exercised) and recovered.
  EXPECT_GE(total_retries, 3u);

  // Determinism: the identical run is bit-identical, chunk for chunk.
  auto again = Simulator(config).run(specs, faulted, LinkMode::kShared);
  ASSERT_EQ(again.size(), results.size());
  for (size_t k = 0; k < results.size(); ++k) {
    const auto& a = results[k].session.chunks();
    const auto& b = again[k].session.chunks();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].download_start_s, b[i].download_start_s);
      EXPECT_EQ(a[i].download_time_s, b[i].download_time_s);
      EXPECT_EQ(a[i].rebuffer_s, b[i].rebuffer_s);
    }
  }
}

TEST_F(ResilienceTest, RttSpikesDelayRequestsWithoutConsumingCapacity) {
  net::ThroughputTrace trace("steady", std::vector<double>(60, 12000.0), 1.0);
  net::FaultPlan plan;
  plan.add(make_event(net::FaultKind::kRttSpike, 0.0, 4.0, 0.4));

  PlayerConfig config;  // resilience disabled: spikes work on their own
  SessionResult spiked = run_one(config, trace, LinkMode::kDedicated, &plan);
  SessionResult clean = run_one(config, trace, LinkMode::kDedicated);
  ASSERT_NE(spiked.timeline(), nullptr);
  std::string why;
  EXPECT_TRUE(spiked.timeline()->check_invariants(&why)) << why;
  // The first request (issued at t=0, inside the spike) pays the extra RTT.
  EXPECT_EQ(spiked.timeline()->chunks()[0].rtt_s, config.rtt_s + 0.4);
  EXPECT_EQ(spiked.startup_delay_s(), clean.startup_delay_s() + 0.4);
  // Chunks requested after the spike window are untouched.
  EXPECT_EQ(spiked.timeline()->chunks().back().rtt_s, config.rtt_s);
}

TEST_F(ResilienceTest, BackoffJitterIsSeededAndDeterministic) {
  net::ThroughputTrace trace("steady", std::vector<double>(60, 12000.0), 1.0);
  net::FaultPlan plan;
  plan.add(make_event(net::FaultKind::kOutage, 6.0, 12.0, 0.0));
  net::ThroughputTrace faulted = plan.apply_to_trace(trace);

  PlayerConfig config = resilient_config();
  config.resilience.backoff_jitter_frac = 0.5;
  config.resilience.jitter_seed = 11;
  SessionResult a = run_one(config, faulted, LinkMode::kDedicated);
  SessionResult b = run_one(config, faulted, LinkMode::kDedicated);
  config.resilience.jitter_seed = 12;
  SessionResult c = run_one(config, faulted, LinkMode::kDedicated);

  ASSERT_EQ(a.chunks().size(), b.chunks().size());
  bool seed_differs = false;
  for (size_t i = 0; i < a.chunks().size(); ++i) {
    EXPECT_EQ(a.chunks()[i].download_time_s, b.chunks()[i].download_time_s);
    if (i < c.chunks().size() &&
        a.chunks()[i].download_time_s != c.chunks()[i].download_time_s) {
      seed_differs = true;
    }
  }
  // A different jitter seed shifts the backoff of the retried chunk, and
  // with it that chunk's recorded download time.
  EXPECT_TRUE(seed_differs);
}

TEST_F(ResilienceTest, AbandonmentAndCompletionCarryTypedCauses) {
  net::ThroughputTrace trace("steady", std::vector<double>(60, 12000.0), 1.0);
  SessionResult full = run_one(PlayerConfig(), trace, LinkMode::kDedicated);
  EXPECT_EQ(full.outcome_cause(), OutcomeCause::kNone);
  EXPECT_EQ(full.failed_chunk(), video_->num_chunks());

  SessionResult left = run_one(PlayerConfig(), trace, LinkMode::kDedicated,
                               nullptr, /*chunk_limit=*/5);
  EXPECT_EQ(left.outcome(), SessionOutcome::kCompleted);
  EXPECT_EQ(left.outcome_cause(), OutcomeCause::kAbandoned);
  EXPECT_EQ(left.failed_chunk(), 5u);
  EXPECT_EQ(left.chunks().size(), 5u);

  EXPECT_EQ(to_string(OutcomeCause::kAbandoned), std::string("abandoned"));
  EXPECT_EQ(to_string(OutcomeCause::kTimeoutBudget), std::string("timeout_budget"));
}

TEST_F(ResilienceTest, RejectsNonsenseResilienceConfigs) {
  net::ThroughputTrace trace("steady", std::vector<double>(10, 8000.0), 1.0);
  auto expect_throws = [&](PlayerConfig config) {
    auto policy = abr::make_policy("bba");
    SessionSpec spec;
    spec.video = video_.get();
    spec.policy = policy.get();
    EXPECT_THROW(Simulator(config).run({spec}, trace, LinkMode::kDedicated),
                 std::runtime_error);
  };
  PlayerConfig bad = resilient_config();
  bad.resilience.request_timeout_s = 0.0;
  expect_throws(bad);
  bad = resilient_config();
  bad.resilience.backoff_base_s = -1.0;
  expect_throws(bad);
  bad = resilient_config();
  bad.resilience.backoff_factor = 0.5;
  expect_throws(bad);
  bad = resilient_config();
  bad.resilience.backoff_jitter_frac = 1.0;
  expect_throws(bad);
}

// ---- SharedLink::abort ------------------------------------------------------

TEST(SharedLinkAbort, FreezesGrantsAndRestoresFullCapacity) {
  net::ThroughputTrace trace("flat", {8000.0}, 1.0);  // 8 Mbps, loops
  net::SharedLink link(trace);
  size_t a = link.begin(1000.0 * 125.0, 0.0);  // 1000 kbit = 1 Mbit
  size_t b = link.begin(1000.0 * 125.0, 0.0);
  // Two equal transfers split 8 Mbps: each finishes 1 Mbit in 0.25 s.
  link.advance_to(0.1);  // each granted 0.4 Mbit so far
  link.abort(a);

  net::SharedLink::TransferView va = link.view(a);
  EXPECT_TRUE(va.aborted);
  EXPECT_FALSE(va.finished);
  EXPECT_EQ(va.finish_s, 0.1);
  EXPECT_NEAR(va.granted_bits, 0.4e6, 1.0);

  // The survivor now owns the full link: remaining 0.6 Mbit at 8 Mbps.
  EXPECT_NEAR(link.next_completion_s(), 0.175, 1e-9);
  link.advance_to(0.2);
  ASSERT_EQ(link.completions_sorted().size(), 1u);
  EXPECT_EQ(link.completions_sorted()[0].id, b);
  EXPECT_NEAR(link.completions_sorted()[0].finish_s, 0.175, 1e-9);

  // Aborting twice, or aborting a finished transfer, is a driver bug.
  EXPECT_THROW(link.abort(a), std::runtime_error);
  EXPECT_THROW(link.abort(b), std::runtime_error);
  EXPECT_THROW(link.abort(999), std::runtime_error);
}

// A transfer of +infinity bytes would hold an infinite finish credit: it
// could never finish, so next_completion_s() would report a dead link and
// the cell loop would fail every live session; in the link's credit heap
// +infinity also means "absent". begin() refuses it, and any byte count
// whose bit count overflows, up front.
TEST(SharedLinkAbort, BeginRejectsNonFiniteByteCounts) {
  net::ThroughputTrace trace("flat", {8000.0}, 1.0);
  net::SharedLink link(trace);
  EXPECT_THROW(link.begin(kInf, 0.0), std::runtime_error);
  EXPECT_THROW(link.begin(std::numeric_limits<double>::max(), 0.0), std::runtime_error);
  EXPECT_THROW(link.begin(std::nan(""), 0.0), std::runtime_error);
  EXPECT_THROW(link.begin(-kInf, 0.0), std::runtime_error);
  EXPECT_THROW(link.begin(0.0, 0.0), std::runtime_error);
  EXPECT_EQ(link.active_count(), 0u);
  EXPECT_EQ(link.next_completion_s(), kInf);

  const size_t id = link.begin(1000.0 * 125.0, 0.0);  // 1 Mbit at 8 Mbps
  EXPECT_EQ(link.active_count(), 1u);
  EXPECT_EQ(link.next_completion_s(), 0.125);
  link.abort(id);
  EXPECT_EQ(link.active_count(), 0u);
}

// ---- LivelockError ----------------------------------------------------------

TEST(LivelockErrorTest, NamesLoopStuckSessionAndInstant) {
  LivelockError err("fleet cell 3", 7, 12.5);
  EXPECT_EQ(err.stuck_session(), 7u);
  EXPECT_EQ(err.sim_time_s(), 12.5);
  std::string what = err.what();
  EXPECT_NE(what.find("fleet cell 3"), std::string::npos);
  EXPECT_NE(what.find("stuck session 7"), std::string::npos);
  EXPECT_NE(what.find("12.5"), std::string::npos);
  // Typed, but still catchable where the old sentinel string was.
  const std::runtime_error& base = err;
  EXPECT_NE(std::string(base.what()).find("event loop stalled"), std::string::npos);
}

// ---- fleet ------------------------------------------------------------------

class FleetResilienceTest : public ::testing::Test {
 protected:
  FleetResilienceTest() {
    media::Encoder encoder;
    videos_.push_back(encoder.encode(
        media::SourceVideo::generate("GateA", media::Genre::kSports, 60)));
    videos_.push_back(encoder.encode(
        media::SourceVideo::generate("GateB", media::Genre::kNature, 80)));
    for (const auto& v : videos_) video_ptrs_.push_back(&v);
  }

  FleetConfig gate_config() const {
    FleetConfig config;
    config.num_cells = 5;
    config.seed = 880808;
    config.workload.arrival_rate_per_s = 0.25;
    config.workload.arrival_window_s = 150.0;
    config.workload.abandon_fraction = 0.3;
    config.workload.mean_abandon_chunks = 8.0;
    return config;
  }

  FleetConfig faulty_config() const {
    FleetConfig config = gate_config();
    config.player.resilience.request_timeout_s = 6.0;
    config.player.resilience.max_retries = 4;
    config.player.resilience.backoff_base_s = 0.5;
    config.player.resilience.backoff_max_s = 3.0;
    config.player.resilience.backoff_jitter_frac = 0.1;
    config.player.resilience.jitter_seed = 99;
    config.faults.trace_faults.horizon_s = 250.0;
    config.faults.trace_faults.mean_outages = 3.0;
    config.faults.trace_faults.outage_mean_duration_s = 5.0;
    config.faults.trace_faults.mean_collapses = 2.0;
    config.faults.trace_faults.mean_rtt_spikes = 2.0;
    config.faults.cell_failure_fraction = 0.5;
    config.faults.reconnect_delay_s = 2.0;
    config.faults.fallback_scale = 0.5;
    return config;
  }

  std::vector<media::EncodedVideo> videos_;
  std::vector<const media::EncodedVideo*> video_ptrs_;
};

// Faults disabled => the fleet reproduces the pre-fault aggregates bit for
// bit. The literals below were captured from the PR 8 build (before any
// fault/resilience code existed) for this exact scenario; any drift means
// the disabled path is not actually dormant.
TEST_F(FleetResilienceTest, FaultsDisabledMatchesPinnedPreFaultBaseline) {
  core::ExperimentRunner runner(1);
  FleetAggregates agg = FleetSimulator(gate_config()).run(video_ptrs_, runner);

  EXPECT_EQ(agg.sessions, 197u);
  EXPECT_EQ(agg.chunks, 2843u);
  EXPECT_EQ(agg.outages, 0u);
  EXPECT_EQ(agg.abandoned, 44u);
  EXPECT_EQ(agg.peak_concurrent, 20u);
  EXPECT_EQ(agg.session_qoe.mean(), 0.67758190108500849);
  EXPECT_EQ(agg.session_qoe.variance(), 0.02623444425445743);
  EXPECT_EQ(agg.session_bitrate_kbps.mean(), 1994.9966122428054);
  EXPECT_EQ(agg.session_rebuffer_s.mean(), 0.195820868589412);
  EXPECT_EQ(agg.startup_delay_s.mean(), 0.57925889203777337);
  EXPECT_EQ(agg.qoe_sketch.quantile(0.5), 0.71190363736180806);
  EXPECT_EQ(agg.qoe_sketch.quantile(0.9), 0.84900094431788464);
  EXPECT_EQ(agg.qoe_sketch.quantile(0.99), 0.86903800692220623);
  ASSERT_EQ(agg.sessions_by_policy.size(), 4u);
  EXPECT_EQ(agg.sessions_by_policy[0], 60u);
  EXPECT_EQ(agg.sessions_by_policy[1], 31u);
  EXPECT_EQ(agg.sessions_by_policy[2], 60u);
  EXPECT_EQ(agg.sessions_by_policy[3], 46u);

  // The resilience counters exist but stay zero, and the typed outcome
  // split agrees with the legacy record-count classification.
  EXPECT_EQ(agg.timeouts, 0u);
  EXPECT_EQ(agg.retries, 0u);
  EXPECT_EQ(agg.failovers, 0u);
  EXPECT_EQ(agg.failed_cells, 0u);
  EXPECT_EQ(agg.disrupted_sessions, 0u);
  EXPECT_EQ(agg.recovered_sessions, 0u);
  size_t completed = 0, abandoned = 0;
  for (size_t k = 0; k < 4; ++k) {
    completed += agg.completed_by_policy[k];
    abandoned += agg.abandoned_by_policy[k];
  }
  EXPECT_EQ(abandoned, agg.abandoned);
  EXPECT_EQ(completed + abandoned + agg.outages, agg.sessions);
}

TEST_F(FleetResilienceTest, FaultAggregatesBitIdenticalAcrossThreadsAndShards) {
  FleetSimulator fleet(faulty_config());
  core::ExperimentRunner serial(1);
  FleetAggregates reference = fleet.run(video_ptrs_, serial, 1);
  // The fault load must actually bite for this gate to mean anything.
  ASSERT_GT(reference.timeouts, 0u);
  ASSERT_GT(reference.failed_cells, 0u);

  core::ExperimentRunner parallel(4);
  for (size_t shards : {1u, 2u, 5u, 17u}) {
    FleetAggregates agg = fleet.run(video_ptrs_, parallel, shards);
    EXPECT_EQ(agg.sessions, reference.sessions) << "shards=" << shards;
    EXPECT_EQ(agg.chunks, reference.chunks) << "shards=" << shards;
    EXPECT_EQ(agg.outages, reference.outages) << "shards=" << shards;
    EXPECT_EQ(agg.timeout_outages, reference.timeout_outages) << "shards=" << shards;
    EXPECT_EQ(agg.abandoned, reference.abandoned) << "shards=" << shards;
    EXPECT_EQ(agg.timeouts, reference.timeouts) << "shards=" << shards;
    EXPECT_EQ(agg.retries, reference.retries) << "shards=" << shards;
    EXPECT_EQ(agg.failovers, reference.failovers) << "shards=" << shards;
    EXPECT_EQ(agg.failed_cells, reference.failed_cells) << "shards=" << shards;
    EXPECT_EQ(agg.disrupted_sessions, reference.disrupted_sessions)
        << "shards=" << shards;
    EXPECT_EQ(agg.recovered_sessions, reference.recovered_sessions)
        << "shards=" << shards;
    // EXPECT_EQ on doubles: bit-identity, not tolerance, is the contract.
    EXPECT_EQ(agg.session_qoe.mean(), reference.session_qoe.mean())
        << "shards=" << shards;
    EXPECT_EQ(agg.session_rebuffer_s.mean(), reference.session_rebuffer_s.mean())
        << "shards=" << shards;
    EXPECT_EQ(agg.qoe_sketch.quantile(0.9), reference.qoe_sketch.quantile(0.9))
        << "shards=" << shards;
  }
}

TEST_F(FleetResilienceTest, CellFailoverRehomesSessionsAndMostRecover) {
  FleetConfig config = faulty_config();
  config.faults.trace_faults = net::RandomFaultSpec();  // failover only
  config.faults.cell_failure_fraction = 1.0;            // every cell fails
  config.faults.cell_failure_window_s = 100.0;

  core::ExperimentRunner runner(2);
  FleetAggregates agg = FleetSimulator(config).run(video_ptrs_, runner);

  EXPECT_EQ(agg.failed_cells, config.num_cells);
  ASSERT_GT(agg.failovers, 0u);
  ASSERT_GT(agg.disrupted_sessions, 0u);
  EXPECT_GE(agg.recovered_sessions, agg.failovers / 2);
  // The pinned recovery floor: at least 70% of disrupted sessions survive a
  // cell failure (they re-home to the degraded fallback and stream on).
  double rate = static_cast<double>(agg.recovered_sessions) /
                static_cast<double>(agg.disrupted_sessions);
  EXPECT_GE(rate, 0.7);
  // Accounting stays closed under faults.
  size_t completed = 0, abandoned = 0;
  for (size_t k = 0; k < agg.completed_by_policy.size(); ++k) {
    completed += agg.completed_by_policy[k];
    abandoned += agg.abandoned_by_policy[k];
  }
  EXPECT_EQ(completed + abandoned + agg.outages, agg.sessions);
  EXPECT_EQ(abandoned, agg.abandoned);
}

TEST_F(FleetResilienceTest, SeededFaultLoadMostDisruptedSessionsRecover) {
  core::ExperimentRunner runner(2);
  FleetAggregates agg = FleetSimulator(faulty_config()).run(video_ptrs_, runner);

  ASSERT_GT(agg.timeouts, 0u);
  ASSERT_GT(agg.disrupted_sessions, 0u);
  EXPECT_GE(agg.retries, 1u);
  EXPECT_LE(agg.retries, agg.timeouts);  // each retry answers one timeout
  EXPECT_LE(agg.timeout_outages, agg.outages);
  EXPECT_LE(agg.recovered_sessions, agg.disrupted_sessions);
  double rate = static_cast<double>(agg.recovered_sessions) /
                static_cast<double>(agg.disrupted_sessions);
  EXPECT_GE(rate, 0.7);  // the pinned transient-recovery floor
}

TEST_F(FleetResilienceTest, FleetRejectsNonsenseFaultConfigs) {
  FleetConfig bad = gate_config();
  bad.faults.cell_failure_fraction = 1.5;
  EXPECT_THROW(FleetSimulator{bad}, std::runtime_error);
  bad = gate_config();
  bad.faults.cell_failure_fraction = 0.5;
  bad.faults.fallback_scale = 0.0;
  EXPECT_THROW(FleetSimulator{bad}, std::runtime_error);
  bad = gate_config();
  bad.faults.cell_failure_fraction = 0.5;
  bad.faults.reconnect_delay_s = -1.0;
  EXPECT_THROW(FleetSimulator{bad}, std::runtime_error);
  bad = gate_config();
  bad.faults.cell_failure_fraction = 0.5;
  bad.faults.cell_failure_window_s = kInf;
  EXPECT_THROW(FleetSimulator{bad}, std::runtime_error);
}

}  // namespace
}  // namespace sensei::sim
