// Equivalence gate and fixed-semantics regressions for the event-driven
// session timeline (sim/timeline.h).
//
// The gate: on well-behaved traces (no outage) with rtt_s = 0, the timeline
// engine must reproduce the frozen legacy accounting loop
// (tests/oracles/legacy_player.h) bit for bit —
// every ChunkRecord field, the startup delay, and whole ExperimentRunner
// grids at 1 and 4 threads. The regressions pin the *corrected* semantics:
// RTT as dead time excluded from goodput, outages surfaced instead of the
// old fake-success guard, scheduled-pause vs drain ordering, and buffer-cap
// idle accounting.
#include "sim/timeline.h"

#include <gtest/gtest.h>

#include <cmath>

#include "abr/bba.h"
#include "abr/fugu.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "oracles/legacy_player.h"
#include "qoe/metrics.h"
#include "sim/player.h"
#include "util/rng.h"

namespace sensei::sim {
namespace {

class ScriptedPolicy : public AbrPolicy {
 public:
  explicit ScriptedPolicy(std::vector<AbrDecision> script) : script_(std::move(script)) {}
  const char* name() const override { return "scripted"; }
  AbrDecision decide(const AbrObservation& obs) override {
    last_obs_ = obs;
    return script_[obs.next_chunk % script_.size()];
  }
  AbrObservation last_obs_;

 private:
  std::vector<AbrDecision> script_;
};

void expect_sessions_bit_identical(const SessionResult& a, const SessionResult& b) {
  ASSERT_EQ(a.chunks().size(), b.chunks().size());
  EXPECT_EQ(a.startup_delay_s(), b.startup_delay_s());
  for (size_t i = 0; i < a.chunks().size(); ++i) {
    const auto& x = a.chunks()[i];
    const auto& y = b.chunks()[i];
    SCOPED_TRACE("chunk " + std::to_string(i));
    EXPECT_EQ(x.level, y.level);
    EXPECT_EQ(x.download_start_s, y.download_start_s);
    EXPECT_EQ(x.download_time_s, y.download_time_s);
    EXPECT_EQ(x.rebuffer_s, y.rebuffer_s);
    EXPECT_EQ(x.scheduled_rebuffer_s, y.scheduled_rebuffer_s);
    EXPECT_EQ(x.buffer_after_s, y.buffer_after_s);
    EXPECT_EQ(x.size_bytes, y.size_bytes);
  }
}

// --- the legacy-vs-timeline bit-identity gate ------------------------------

class TimelineEquivalence : public ::testing::Test {
 protected:
  static PlayerConfig gate_config() {
    PlayerConfig config;
    config.rtt_s = 0.0;  // the gate's precondition: no RTT, no outage
    return config;
  }

  // One session on the legacy oracle or on the timeline engine.
  static SessionResult stream(bool legacy, const media::EncodedVideo& video,
                              const net::ThroughputTrace& trace, AbrPolicy& policy,
                              const std::vector<double>& weights = {}) {
    if (legacy) return oracles::stream_legacy(gate_config(), video, trace, policy, weights);
    return Player(gate_config()).stream(video, trace, policy, weights);
  }
};

TEST_F(TimelineEquivalence, BitIdenticalToLegacyOnSeededGrid) {
  // Seeded grid over (video × trace × policy): scripted mixes with
  // scheduled pauses, BBA, and both Fugu planner flavors.
  std::vector<media::EncodedVideo> videos;
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("TlEqA", media::Genre::kSports, 120)));
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("TlEqB", media::Genre::kNature, 180)));
  auto traces = net::TraceGenerator::test_set(500.0);

  util::Rng rng(0x7157a11);
  for (const auto& video : videos) {
    std::vector<double> weights(video.num_chunks(), 1.0);
    for (size_t i = 0; i < weights.size(); i += 5) weights[i] = rng.uniform(0.6, 2.5);

    for (size_t t = 0; t < traces.size(); ++t) {
      for (int policy_kind = 0; policy_kind < 3; ++policy_kind) {
        SCOPED_TRACE(video.source().name() + " trace " + std::to_string(t) + " policy " +
                     std::to_string(policy_kind));
        auto make_policy = [&]() -> std::unique_ptr<AbrPolicy> {
          switch (policy_kind) {
            case 0:
              return std::make_unique<ScriptedPolicy>(std::vector<AbrDecision>{
                  {0, 0.0}, {4, 0.0}, {2, 1.0}, {3, 0.0}, {1, 2.0}});
            case 1:
              return std::make_unique<abr::BbaAbr>();
            default: {
              abr::FuguConfig fugu;
              fugu.use_weights = true;
              fugu.rebuffer_options = {0.0, 1.0, 2.0};
              return std::make_unique<abr::FuguAbr>(fugu);
            }
          }
        };
        auto legacy_policy = make_policy();
        auto timeline_policy = make_policy();
        SessionResult legacy = stream(true, video, traces[t], *legacy_policy, weights);
        SessionResult timeline = stream(false, video, traces[t], *timeline_policy, weights);
        expect_sessions_bit_identical(legacy, timeline);
        EXPECT_EQ(timeline.outcome(), SessionOutcome::kCompleted);
        ASSERT_NE(timeline.timeline(), nullptr);
        EXPECT_EQ(legacy.timeline(), nullptr);
        std::string why;
        EXPECT_TRUE(timeline.timeline()->check_invariants(&why)) << why;
      }
    }
  }
}

TEST_F(TimelineEquivalence, GridBitIdenticalAcrossEnginesAndRunnerThreads) {
  // The ExperimentRunner contract: a (video × trace) grid is bit-identical
  // across engines (at rtt 0) and across worker counts.
  std::vector<media::EncodedVideo> videos;
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("TlGridA", media::Genre::kGaming, 120)));
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("TlGridB", media::Genre::kAnimation, 120)));
  std::vector<net::ThroughputTrace> traces = {
      net::TraceGenerator::cellular("tl-cell", 900, 500.0, 11),
      net::TraceGenerator::broadband("tl-bb", 2800, 500.0, 12),
  };

  auto run = [&](bool legacy, size_t threads) {
    core::ExperimentRunner runner(threads);
    std::vector<SessionResult> out(videos.size() * traces.size());
    runner.for_each(out.size(), [&](size_t i) {
      size_t v = i / traces.size();
      size_t t = i % traces.size();
      abr::FuguConfig fugu;
      fugu.rebuffer_options = {0.0, 1.0};
      abr::FuguAbr policy(fugu);
      out[i] = stream(legacy, videos[v], traces[t], policy);
    });
    return out;
  };

  auto base = run(true, 1);
  for (bool legacy : {true, false}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      auto got = run(legacy, threads);
      ASSERT_EQ(got.size(), base.size());
      for (size_t i = 0; i < base.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i) + " threads " + std::to_string(threads));
        expect_sessions_bit_identical(base[i], got[i]);
      }
    }
  }
}

// --- corrected RTT semantics ----------------------------------------------

TEST(TimelineRtt, RttIsDeadTimeBeforeTheTransfer) {
  // 2 s of dead link then 1000 Kbps. With a 0.5 s RTT the request is issued
  // at t=0, the transfer may only start at t=0.5 and finds zero capacity
  // until t=2. The legacy placement integrated the transfer from t=0 — same
  // result here — but the distinction shows in capacity accounting below.
  net::ThroughputTrace trace("step", {0.0, 0.0, 1000.0}, 1.0);
  // 125000 bytes = 1 Mbit: transfer needs a full second at 1000 Kbps.
  double dl = trace.download_time_s(125000.0, 0.0, 0.5);
  // RTT 0.5 + (wait 1.5 until t=2) + 1 s transfer = 3.0 total.
  EXPECT_NEAR(dl, 3.0, 1e-9);
}

TEST(TimelineRtt, RttConsumesNoTraceCapacity) {
  // 1000 Kbps for 1 s, then dead, then 1000 Kbps again. A 62500-byte chunk
  // (0.5 Mbit) requested at t=0.6 with rtt 0.5: the transfer starts at
  // t=1.1 — inside the dead second — and completes 0.1 s into the third
  // interval. Under the old placement the transfer would have integrated
  // from t=0.6 and "used" 0.4 s of capacity the request never touched.
  net::ThroughputTrace trace("gap", {1000.0, 0.0, 1000.0}, 1.0);
  double dl = trace.download_time_s(62500.0, 0.6, 0.5);
  EXPECT_NEAR(dl, 0.5 + (2.0 - 1.1) + 0.5, 1e-9);
}

TEST(TimelineRtt, GoodputExcludesRtt) {
  // A small chunk whose wire time is comparable to the RTT: the goodput
  // handed to the predictors must be bytes / transfer, not bytes / (rtt +
  // transfer). Constant 8000 Kbps link, 4 Mbit chunks -> 0.5 s transfers.
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("RttGoodput", media::Genre::kSports, 60));
  net::ThroughputTrace trace("flat", std::vector<double>(600, 8000.0), 1.0);
  PlayerConfig config;
  config.rtt_s = 0.25;
  ScriptedPolicy policy({{2, 0.0}});
  SessionResult s = Player(config).stream(video, trace, policy);
  ASSERT_NE(s.timeline(), nullptr);
  for (const auto& c : s.timeline()->chunks()) {
    double wire_s = c.transfer_s;
    ASSERT_GT(wire_s, 0.0);
    double expected_goodput = c.goodput_kbps;
    // goodput == size * 8 / transfer (not the RTT-diluted estimate).
    EXPECT_NEAR(expected_goodput * wire_s,
                s.chunks()[c.chunk].size_bytes * 8.0 / 1000.0, 1e-6);
    EXPECT_EQ(c.rtt_s, 0.25);
    // The wall-clock download time still includes the RTT.
    EXPECT_NEAR(s.chunks()[c.chunk].download_time_s, wire_s + 0.25, 1e-12);
  }
  // The observation stream carries the unbiased estimate.
  EXPECT_NEAR(policy.last_obs_.last_throughput_kbps, 8000.0, 1e-6);
}

// --- outage semantics ------------------------------------------------------

TEST(TimelineOutage, DeadLoopingTraceTruncatesSession) {
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("Dead", media::Genre::kAnimation, 60));
  net::ThroughputTrace dead("dead", {0.0, 0.0, 0.0}, 1.0);
  ScriptedPolicy policy({{0, 0.0}});
  SessionResult s = Player().stream(video, dead, policy);
  EXPECT_EQ(s.outcome(), SessionOutcome::kOutage);
  EXPECT_TRUE(s.chunks().empty());  // the very first chunk never arrived
  ASSERT_NE(s.timeline(), nullptr);
  EXPECT_EQ(s.timeline()->outcome(), SessionOutcome::kOutage);
  EXPECT_EQ(s.timeline()->outage_chunk(), 0u);
}

TEST(TimelineOutage, MidSessionOutageKeepsCompletedChunks) {
  // Healthy for 60 s, then dead forever (finite trace, non-looping).
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("MidOutage", media::Genre::kAnimation, 240));
  net::ThroughputTrace trace =
      net::ThroughputTrace("cliff", std::vector<double>(60, 4000.0), 1.0).as_finite();
  ScriptedPolicy policy({{2, 0.0}});
  SessionResult s = Player().stream(video, trace, policy);
  EXPECT_EQ(s.outcome(), SessionOutcome::kOutage);
  EXPECT_GT(s.chunks().size(), 0u);
  EXPECT_LT(s.chunks().size(), video.num_chunks());
  ASSERT_NE(s.timeline(), nullptr);
  EXPECT_EQ(s.timeline()->outage_chunk(), s.chunks().size());
  std::string why;
  EXPECT_TRUE(s.timeline()->check_invariants(&why)) << why;
  // Every surviving record is a genuinely completed download.
  for (const auto& c : s.chunks()) EXPECT_TRUE(std::isfinite(c.download_time_s));
}

TEST(TimelineOutage, LongZeroStretchIsAnExactStallNotFakeSuccess) {
  // The old guard walked at most 10,000 intervals and then *returned a
  // finite time as if the chunk had downloaded*. A 12,000 s dead stretch
  // must now yield the exact 12,000+ s stall.
  std::vector<double> samples(12001, 0.0);
  samples[12000] = 8000.0;
  net::ThroughputTrace trace("coma", std::move(samples), 1.0);
  net::TransferResult r = trace.advance(125000.0, 0.0);
  EXPECT_TRUE(r.completed);
  EXPECT_NEAR(r.elapsed_s, 12000.0 + 0.125, 1e-9);
}

// --- scheduled-pause vs drain ordering ------------------------------------

TEST(TimelineOrdering, DrainThenPauseCreditThenChunkAppend) {
  // One chunk at a time over a constant link; hand-computable numbers.
  // tau = 4 s chunks, 1 Mbit at level 0 over 1000 Kbps -> dl = 1 s exactly.
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("Order", media::Genre::kSports, 40));
  double bits0 = video.rep(1, 0).size_bytes * 8.0;
  double kbps = bits0 / 1000.0;  // dl of chunk 1 at level 0 == exactly 1 s
  net::ThroughputTrace trace("flat", std::vector<double>(4000, kbps), 1.0);
  PlayerConfig config;
  config.rtt_s = 0.0;
  config.max_buffer_s = 1000.0;  // cap out of the way
  ScriptedPolicy policy({{0, 0.0}, {0, 1.5}});
  SessionResult s = Player(config).stream(video, trace, policy);
  ASSERT_NE(s.timeline(), nullptr);
  const auto& chunks = s.timeline()->chunks();
  double tau = video.chunk_duration_s();

  // Chunk 1 (script index 1): scheduled 1.5 s pause. The order is pinned:
  // drain dl, then credit the pause, then append tau.
  const auto& c1 = chunks[1];
  double dl1 = s.chunks()[1].download_time_s;
  EXPECT_EQ(c1.scheduled_pause_s, 1.5);
  EXPECT_EQ(c1.stall_s, 0.0);  // buffer (tau) covered the download
  EXPECT_EQ(s.chunks()[1].rebuffer_s, 1.5);  // the pause is charged as stall
  EXPECT_DOUBLE_EQ(c1.buffer_after_s, tau - dl1 + 1.5 + tau);
  std::string why;
  EXPECT_TRUE(s.timeline()->check_invariants(&why)) << why;
}

TEST(TimelineOrdering, UnscheduledStallAnchoredWhereBufferEmptied) {
  // Slow link: each download outlasts the buffer, so every post-startup
  // chunk stalls and the stall onset sits exactly at buffer exhaustion.
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("Anchor", media::Genre::kSports, 80));
  net::ThroughputTrace slow("slow", std::vector<double>(4000, 400.0), 1.0);
  PlayerConfig config;
  config.rtt_s = 0.0;
  ScriptedPolicy policy({{4, 0.0}});
  SessionResult s = Player(config).stream(video, slow, policy);
  ASSERT_NE(s.timeline(), nullptr);
  bool any_stall = false;
  for (const auto& c : s.timeline()->chunks()) {
    if (c.stall_s <= 0.0) continue;
    any_stall = true;
    // Onset = request + what the buffer could cover.
    EXPECT_NEAR(c.stall_start_wall_s, c.request_wall_s + c.buffer_before_s, 1e-9);
    EXPECT_NEAR(c.stall_start_wall_s, c.arrival_wall_s - c.stall_s, 1e-12);
  }
  EXPECT_TRUE(any_stall);
  EXPECT_GT(s.timeline()->first_stall_wall_s(), 0.0);
}

// --- buffer-cap idle accounting -------------------------------------------

TEST(TimelineIdle, IdleAdvancesWallClockAndDrainsToCap) {
  // Fast link + small buffer cap: the player repeatedly idles. Idle spans
  // must advance the wall clock by exactly the excess and leave the buffer
  // at the cap.
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("Idle", media::Genre::kSports, 120));
  net::ThroughputTrace fast("fast", std::vector<double>(2000, 50000.0), 1.0);
  PlayerConfig config;
  config.rtt_s = 0.0;
  config.max_buffer_s = 6.0;  // < 2 * tau forces idling every chunk
  ScriptedPolicy policy({{0, 0.0}});
  SessionResult s = Player(config).stream(video, fast, policy);
  ASSERT_NE(s.timeline(), nullptr);
  const auto& chunks = s.timeline()->chunks();
  double total_idle = 0.0;
  for (size_t i = 1; i < chunks.size(); ++i) {
    const auto& c = chunks[i];
    if (c.idle_s > 0.0) {
      EXPECT_EQ(c.buffer_after_s, 6.0);
      // The next request waits out the idle.
      if (i + 1 < chunks.size()) {
        EXPECT_DOUBLE_EQ(chunks[i + 1].request_wall_s, c.arrival_wall_s + c.idle_s);
      }
    }
    total_idle += c.idle_s;
  }
  EXPECT_GT(total_idle, 0.0);
  EXPECT_DOUBLE_EQ(s.timeline()->total_idle_s(), total_idle);
  std::string why;
  EXPECT_TRUE(s.timeline()->check_invariants(&why)) << why;
}

// --- timeline events and stall attribution --------------------------------

TEST(TimelineEvents, EventsPartitionDownloadWindowsAndCarryOverlays) {
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("Events", media::Genre::kGaming, 80));
  net::ThroughputTrace trace = net::TraceGenerator::cellular("ev-cell", 700, 600.0, 21);
  PlayerConfig config;  // default rtt 0.08 so kRttWait events appear
  ScriptedPolicy policy({{3, 0.0}, {1, 1.0}});
  SessionResult s = Player(config).stream(video, trace, policy);
  ASSERT_NE(s.timeline(), nullptr);
  auto events = s.timeline()->events();
  ASSERT_FALSE(events.empty());

  // Per chunk: rtt + transfer spans must tile [request, arrival].
  for (const auto& c : s.timeline()->chunks()) {
    double covered = 0.0;
    for (const auto& e : events) {
      if (e.chunk != c.chunk) continue;
      if (e.kind == TimelineEventKind::kRttWait || e.kind == TimelineEventKind::kTransfer)
        covered += e.duration_s;
    }
    EXPECT_NEAR(covered, c.arrival_wall_s - c.request_wall_s, 1e-9);
  }
  // Overlay sums must equal the aggregates.
  double stall_sum = 0.0, pause_sum = 0.0;
  for (const auto& e : events) {
    EXPECT_GT(e.duration_s, 0.0);  // zero-length spans are skipped
    if (e.kind == TimelineEventKind::kStall) stall_sum += e.duration_s;
    if (e.kind == TimelineEventKind::kScheduledPause) pause_sum += e.duration_s;
  }
  EXPECT_NEAR(stall_sum, s.timeline()->total_unscheduled_stall_s(), 1e-9);
  EXPECT_NEAR(pause_sum, s.timeline()->total_scheduled_pause_s(), 1e-9);
}

TEST(TimelineEvents, StallProfileMatchesSessionAccounting) {
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("Profile", media::Genre::kSports, 120));
  net::ThroughputTrace slow("slow", std::vector<double>(4000, 500.0), 1.0);
  ScriptedPolicy policy({{4, 0.0}, {2, 1.0}});
  SessionResult s = Player().stream(video, slow, policy);
  ASSERT_NE(s.timeline(), nullptr);
  qoe::StallProfile profile = qoe::stall_profile(*s.timeline());
  ASSERT_EQ(profile.per_chunk_stall_s.size(), s.chunks().size());
  for (size_t i = 0; i < s.chunks().size(); ++i) {
    // Attribution read off the trajectory == the session's per-chunk stall.
    EXPECT_DOUBLE_EQ(profile.per_chunk_stall_s[i], s.chunks()[i].rebuffer_s);
  }
  EXPECT_DOUBLE_EQ(profile.total_stall_s, s.total_rebuffer_s());
  EXPECT_GT(profile.stall_event_count, 0u);
  EXPECT_GT(profile.longest_stall_s, 0.0);
  EXPECT_GE(profile.first_stall_wall_s, 0.0);
  EXPECT_FALSE(profile.ended_in_outage);
}

}  // namespace
}  // namespace sensei::sim
