// Gates for the multi-session simulator stack: net::SharedLink capacity
// accounting, the sim::Simulator event loop, and — the load-bearing one —
// the Simulator-vs-Player bit-identity gate: a single session driven
// through the event loop on a dedicated link must reproduce Player::stream
// exactly (every ChunkRecord field, every ChunkTrajectory field, outcome,
// startup delay) across policies, looping/finite/outage traces, and
// ExperimentRunner thread counts. That is what licenses reading
// multi-session results as "the same player, under contention".
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "abr/bba.h"
#include "abr/fugu.h"
#include "bench_util.h"
#include "core/experiments.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "net/shared_link.h"
#include "net/trace_gen.h"
#include "sim/player.h"
#include "sim/session_engine.h"
#include "util/rng.h"

namespace sensei::sim {
namespace {

class ScriptedPolicy : public AbrPolicy {
 public:
  explicit ScriptedPolicy(std::vector<AbrDecision> script) : script_(std::move(script)) {}
  const char* name() const override { return "scripted"; }
  AbrDecision decide(const AbrObservation& obs) override {
    return script_[obs.next_chunk % script_.size()];
  }

 private:
  std::vector<AbrDecision> script_;
};

// Full-fidelity comparison: chunk records, trajectory, outcome, startup.
void expect_sessions_identical(const SessionResult& a, const SessionResult& b) {
  ASSERT_EQ(a.chunks().size(), b.chunks().size());
  EXPECT_EQ(a.startup_delay_s(), b.startup_delay_s());
  EXPECT_EQ(a.outcome(), b.outcome());
  EXPECT_EQ(a.video_name(), b.video_name());
  EXPECT_EQ(a.trace_name(), b.trace_name());
  for (size_t i = 0; i < a.chunks().size(); ++i) {
    const ChunkRecord& x = a.chunks()[i];
    const ChunkRecord& y = b.chunks()[i];
    SCOPED_TRACE("chunk " + std::to_string(i));
    EXPECT_EQ(x.level, y.level);
    EXPECT_EQ(x.bitrate_kbps, y.bitrate_kbps);
    EXPECT_EQ(x.size_bytes, y.size_bytes);
    EXPECT_EQ(x.download_start_s, y.download_start_s);
    EXPECT_EQ(x.download_time_s, y.download_time_s);
    EXPECT_EQ(x.rebuffer_s, y.rebuffer_s);
    EXPECT_EQ(x.scheduled_rebuffer_s, y.scheduled_rebuffer_s);
    EXPECT_EQ(x.buffer_after_s, y.buffer_after_s);
    EXPECT_EQ(x.visual_quality, y.visual_quality);
  }
  ASSERT_NE(a.timeline(), nullptr);
  ASSERT_NE(b.timeline(), nullptr);
  const SessionTimeline& ta = *a.timeline();
  const SessionTimeline& tb = *b.timeline();
  EXPECT_EQ(ta.outcome(), tb.outcome());
  if (ta.outcome() == SessionOutcome::kOutage) {
    EXPECT_EQ(ta.outage_chunk(), tb.outage_chunk());
    EXPECT_EQ(ta.outage_wall_s(), tb.outage_wall_s());
  }
  EXPECT_EQ(ta.startup_delay_s(), tb.startup_delay_s());
  ASSERT_EQ(ta.chunks().size(), tb.chunks().size());
  for (size_t i = 0; i < ta.chunks().size(); ++i) {
    const ChunkTrajectory& x = ta.chunks()[i];
    const ChunkTrajectory& y = tb.chunks()[i];
    SCOPED_TRACE("trajectory " + std::to_string(i));
    EXPECT_EQ(x.level, y.level);
    EXPECT_EQ(x.request_wall_s, y.request_wall_s);
    EXPECT_EQ(x.rtt_s, y.rtt_s);
    EXPECT_EQ(x.transfer_s, y.transfer_s);
    EXPECT_EQ(x.arrival_wall_s, y.arrival_wall_s);
    EXPECT_EQ(x.stall_s, y.stall_s);
    EXPECT_EQ(x.stall_start_wall_s, y.stall_start_wall_s);
    EXPECT_EQ(x.scheduled_pause_s, y.scheduled_pause_s);
    EXPECT_EQ(x.idle_s, y.idle_s);
    EXPECT_EQ(x.buffer_before_s, y.buffer_before_s);
    EXPECT_EQ(x.buffer_after_s, y.buffer_after_s);
    EXPECT_EQ(x.playhead_before_s, y.playhead_before_s);
    EXPECT_EQ(x.playhead_after_s, y.playhead_after_s);
    EXPECT_EQ(x.pause_debt_after_s, y.pause_debt_after_s);
    EXPECT_EQ(x.goodput_kbps, y.goodput_kbps);
  }
  // The bench-side gate (bench_multisession's identity section) must agree
  // with this field-by-field comparator: if either ever learns a field the
  // other misses, one of the two checks here trips.
  EXPECT_FALSE(bench::sessions_differ(a, b))
      << "bench::sessions_differ disagrees with the field-by-field gate";
}

// --- net::SharedLink capacity accounting ------------------------------------

TEST(SharedLink, EqualSplitSymmetricTransfersFinishTogether) {
  // Flat 1000 Kbps link, two 1 Mbit transfers from t=0: each sees 500 Kbps,
  // both finish at exactly 2 s having received exactly half the capacity.
  net::ThroughputTrace trace("flat", std::vector<double>(100, 1000.0), 1.0);
  net::SharedLink link(trace);
  size_t a = link.begin(125000.0, 0.0);
  size_t b = link.begin(125000.0, 0.0);
  EXPECT_EQ(link.active_count(), 2u);
  double finish = link.next_completion_s();
  EXPECT_NEAR(finish, 2.0, 1e-9);
  link.advance_to(finish);
  auto completions = link.take_completions();
  ASSERT_EQ(completions.size(), 2u);  // perfect tie: both leave together
  EXPECT_EQ(completions[0].id, a);
  EXPECT_EQ(completions[1].id, b);
  EXPECT_EQ(link.active_count(), 0u);
  EXPECT_NEAR(link.view(a).granted_bits, 1e6, 1e-3);
  EXPECT_NEAR(link.view(b).granted_bits, 1e6, 1e-3);
}

TEST(SharedLink, LastLeaverGetsTheFullLink) {
  // A: 0.5 Mbit, B: 1 Mbit on a flat 1000 Kbps link, both from t=0. Equal
  // split until A leaves at t=1 (A needed 0.5 Mbit at 500 Kbps); B then has
  // 0.5 Mbit left and the whole 1000 Kbps: done at t=1.5.
  net::ThroughputTrace trace("flat", std::vector<double>(100, 1000.0), 1.0);
  net::SharedLink link(trace);
  size_t a = link.begin(62500.0, 0.0);
  size_t b = link.begin(125000.0, 0.0);
  double t1 = link.next_completion_s();
  EXPECT_NEAR(t1, 1.0, 1e-9);
  link.advance_to(t1);
  auto first = link.take_completions();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].id, a);
  EXPECT_EQ(link.active_count(), 1u);
  double t2 = link.next_completion_s();
  EXPECT_NEAR(t2, 1.5, 1e-9);
  link.advance_to(t2);
  auto second = link.take_completions();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].id, b);
  EXPECT_NEAR(link.view(b).finish_s, 1.5, 1e-9);
}

TEST(SharedLink, CapacityConservationUnderChurn) {
  // Varying looping trace, transfers joining and leaving: at every event the
  // bits granted across all transfers must equal the trace capacity of the
  // busy spans (the link is never idle in this schedule) and may never
  // exceed the capacity delivered so far.
  net::ThroughputTrace trace("vary", {1000.0, 2500.0, 400.0, 3000.0, 1200.0, 700.0}, 1.0);
  net::SharedLink link(trace);
  util::Rng rng(0x5ea51);
  link.begin(rng.uniform(2e4, 2e5), 0.0);
  size_t joined = 1;
  const size_t total = 12;
  while (link.active_count() > 0) {
    double completion = link.next_completion_s();
    ASSERT_TRUE(std::isfinite(completion));
    // Sometimes stop short of the completion to exercise partial drains and
    // mid-flight joins.
    double t = completion;
    if (joined < total && rng.chance(0.6)) {
      t = link.now_s() + (completion - link.now_s()) * rng.uniform(0.3, 0.9);
    }
    link.advance_to(t);
    if (joined < total && t < completion) {
      link.begin(rng.uniform(2e4, 2e5), t);
      ++joined;
    }
    link.take_completions();

    double granted = 0.0;
    for (size_t id = 0; id < joined; ++id) granted += link.view(id).granted_bits;
    double budget = link.cumulative_bits(link.now_s());
    EXPECT_LE(granted, budget * (1.0 + 1e-9) + 1e-6);
    // Never idle while active: everything delivered so far was granted.
    EXPECT_NEAR(granted, budget, budget * 1e-9 + 1e-3);
  }
  EXPECT_EQ(joined, total);
  for (size_t id = 0; id < joined; ++id) {
    EXPECT_TRUE(link.view(id).finished);
    EXPECT_EQ(link.view(id).granted_bits, link.view(id).total_bits);
  }
}

TEST(SharedLink, DeadLinkReportsNoCompletion) {
  net::ThroughputTrace cliff =
      net::ThroughputTrace("cliff", std::vector<double>(2, 1000.0), 1.0).as_finite();
  net::SharedLink link(cliff);
  link.begin(125000.0, 0.0);  // 1 Mbit; the finite trace only carries 2 Mbit
  link.begin(500000.0, 0.0);  // 4 Mbit: joint demand exceeds what's left
  double t = link.next_completion_s();
  // First finisher needs 2x its remaining — exactly the 2 Mbit available.
  EXPECT_TRUE(std::isfinite(t));
  link.advance_to(t);
  ASSERT_EQ(link.take_completions().size(), 1u);
  // The survivor needs 3.5 Mbit more from an exhausted finite trace: dead.
  EXPECT_TRUE(std::isinf(link.next_completion_s()));
}

// next_completion_s() is memoized until begin, abort or advance_to changes
// the link, and the drain's cumulative_bits(now) comes from the segment
// memo of the previous drain. Two links replay one seeded operation
// sequence; only the second is also asked for its next completion before
// and after every operation (so its memo is warm at the instant of each
// begin and abort). A stale completion memo would show up as
// different completions or grants, and a stale cumulative_bits(now) after an
// idle span as grants that no longer add up to the capacity of the busy
// spans. Sub-bit transfers are due the instant they join.
TEST(SharedLink, MemoizedCompletionMatchesAcrossExtraQueries) {
  const std::vector<net::ThroughputTrace> traces = {
      net::ThroughputTrace("vary", {1000.0, 2500.0, 400.0, 3000.0, 1200.0, 700.0}, 1.0),
      net::ThroughputTrace("cliff", {900.0, 0.0, 1800.0, 600.0, 2200.0, 300.0}, 0.5)
          .as_finite(),
  };
  for (const auto& trace : traces) {
    SCOPED_TRACE(trace.name());
    net::SharedLink plain(trace);
    net::SharedLink asked(trace);
    util::Rng rng(0x3e3011);
    size_t joined = 0;
    size_t finished = 0;
    double busy_bits = 0.0;  // trace capacity over the spans with an active transfer
    for (size_t op = 0; op < 600; ++op) {
      SCOPED_TRACE("op " + std::to_string(op));
      // Instants come from the asked link only, so the plain link never
      // computes a completion outside advance_to.
      const double now = asked.now_s();
      const double next = asked.next_completion_s();
      const size_t active = asked.active_count();
      const double pick = rng.uniform(0.0, 1.0);
      if (active < 6 && pick < (active == 0 ? 0.5 : 0.3)) {
        const double bytes = rng.chance(0.05) ? 0.1 : rng.uniform(2e3, 6e4);
        plain.begin(bytes, now);
        asked.begin(bytes, now);
        ++joined;
      } else if (active > 0 && pick < 0.38) {
        std::vector<size_t> live;
        for (size_t id = 0; id < joined; ++id) {
          const auto v = asked.view(id);
          if (!v.finished && !v.aborted) live.push_back(id);
        }
        const size_t id =
            live[static_cast<size_t>(rng.uniform_int(0, static_cast<int>(live.size()) - 1))];
        plain.abort(id);
        asked.abort(id);
      } else {
        double t = now + rng.uniform(0.0, 2.0);  // idle link or dead link
        if (std::isfinite(next)) {
          switch (rng.uniform_int(0, 5)) {
            case 0: t = next; break;
            case 1: t = std::nextafter(next, 0.0); break;
            case 2: t = std::nextafter(next, 2.0 * next + 1.0); break;
            case 3: t = next + rng.uniform(0.01, 4.0); break;  // several completions
            case 4: t = now + (next - now) * rng.uniform(0.1, 0.9); break;
            default: t = std::nextafter(now, -1.0); break;  // an ulp back: clamps
          }
        }
        plain.advance_to(t);
        asked.advance_to(t);
        if (active > 0) {
          double end = asked.now_s();
          if (asked.active_count() == 0) {
            end = now;
            for (const auto& c : asked.completions_sorted()) end = std::max(end, c.finish_s);
          }
          busy_bits += asked.cumulative_bits(end) - asked.cumulative_bits(now);
        }
      }
      asked.next_completion_s();

      ASSERT_EQ(plain.now_s(), asked.now_s());
      ASSERT_EQ(plain.active_count(), asked.active_count());
      const auto a = plain.take_completions();
      const auto b = asked.take_completions();
      ASSERT_EQ(a.size(), b.size());
      finished += a.size();
      for (size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].id, b[k].id);
        EXPECT_EQ(a[k].finish_s, b[k].finish_s);
      }
      double granted = 0.0;
      for (size_t id = 0; id < joined; ++id) {
        const auto va = plain.view(id);
        const auto vb = asked.view(id);
        EXPECT_EQ(va.total_bits, vb.total_bits);
        EXPECT_EQ(va.granted_bits, vb.granted_bits);
        EXPECT_EQ(va.finished, vb.finished);
        EXPECT_EQ(va.aborted, vb.aborted);
        EXPECT_EQ(va.finish_s, vb.finish_s);
        granted += vb.granted_bits;
      }
      // A finisher is credited its last sub-bit early.
      ASSERT_NEAR(granted, busy_bits, 1e-9 * busy_bits + 1.0 * static_cast<double>(finished) + 1e-3);
    }
    EXPECT_GT(joined, 100u);
  }
}

// --- SessionEngine as a stepwise state machine ------------------------------

TEST(SessionEngine, WalksTheDeclaredStates) {
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("EngineWalk", media::Genre::kSports, 40));
  net::ThroughputTrace trace("flat", std::vector<double>(600, 3000.0), 1.0);
  PlayerConfig config;  // default rtt 0.08 keeps kRtt distinct
  ScriptedPolicy policy({{1, 0.0}});
  SessionEngine engine(config, video, trace, policy, {});
  EXPECT_EQ(engine.state(), SessionEngine::State::kRequesting);

  bool saw_rtt = false, saw_transfer = false, saw_arrived = false;
  double last_t = -1.0;
  while (!engine.done()) {
    double t = engine.next_event_time();
    ASSERT_TRUE(std::isfinite(t));
    EXPECT_GE(t, last_t);  // the event clock never runs backwards
    last_t = t;
    engine.step();  // single-step drive: observe even the transient states
    switch (engine.state()) {
      case SessionEngine::State::kRtt: saw_rtt = true; break;
      case SessionEngine::State::kTransferring: saw_transfer = true; break;
      case SessionEngine::State::kArrived: saw_arrived = true; break;
      default: break;
    }
  }
  EXPECT_TRUE(saw_rtt);
  EXPECT_TRUE(saw_transfer);
  EXPECT_TRUE(saw_arrived);
  EXPECT_EQ(engine.state(), SessionEngine::State::kDone);

  // The stepwise drive emitted exactly what the one-shot wrapper emits.
  ScriptedPolicy fresh({{1, 0.0}});
  expect_sessions_identical(engine.take_result(), Player(config).stream(video, trace, fresh));
}

// --- the Simulator-vs-Player bit-identity gate ------------------------------

class SimulatorEquivalence : public ::testing::Test {
 protected:
  static std::vector<net::ThroughputTrace> gate_traces() {
    // Looping evaluation traces plus the outage shapes: a finite cliff that
    // dies mid-session and a dead-from-the-start link.
    std::vector<net::ThroughputTrace> traces = net::TraceGenerator::test_set(500.0);
    traces.push_back(
        net::ThroughputTrace("cliff", std::vector<double>(45, 3500.0), 1.0).as_finite());
    traces.push_back(net::ThroughputTrace("dead", {0.0, 0.0}, 1.0));
    return traces;
  }

  static std::unique_ptr<AbrPolicy> make_policy(int kind) {
    switch (kind) {
      case 0:
        return std::make_unique<ScriptedPolicy>(
            std::vector<AbrDecision>{{0, 0.0}, {4, 0.0}, {2, 1.0}, {3, 0.0}, {1, 2.0}});
      case 1:
        return std::make_unique<abr::BbaAbr>();
      default: {
        abr::FuguConfig fugu;
        fugu.use_weights = true;
        fugu.rebuffer_options = {0.0, 1.0, 2.0};
        return std::make_unique<abr::FuguAbr>(fugu);
      }
    }
  }
};

TEST_F(SimulatorEquivalence, SingleSessionOnDedicatedLinkMatchesPlayerBitForBit) {
  std::vector<media::EncodedVideo> videos;
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("SimEqA", media::Genre::kSports, 120)));
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("SimEqB", media::Genre::kNature, 180)));
  auto traces = gate_traces();
  PlayerConfig config;  // default rtt: the gate holds with RTT in play

  for (const auto& video : videos) {
    std::vector<double> weights(video.num_chunks(), 1.0);
    for (size_t i = 0; i < weights.size(); i += 4) weights[i] = 1.0 + 0.1 * double(i % 7);

    for (size_t t = 0; t < traces.size(); ++t) {
      for (int kind = 0; kind < 3; ++kind) {
        SCOPED_TRACE(video.source().name() + " trace " + traces[t].name() + " policy " +
                     std::to_string(kind));
        auto player_policy = make_policy(kind);
        SessionResult expected =
            Player(config).stream(video, traces[t], *player_policy, weights);

        auto sim_policy = make_policy(kind);
        SessionSpec spec;
        spec.video = &video;
        spec.policy = sim_policy.get();
        spec.weights = &weights;
        auto results = Simulator(config).run({spec}, traces[t], LinkMode::kDedicated);
        ASSERT_EQ(results.size(), 1u);
        expect_sessions_identical(expected, results[0].session);
      }
    }
  }
}

TEST_F(SimulatorEquivalence, InterleavedDedicatedSessionsEachMatchTheirSoloRun) {
  // Three staggered sessions share one event loop but private links: the
  // interleaving must not leak between sessions — each result equals its
  // solo Player run bit for bit.
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("SimIso", media::Genre::kGaming, 120));
  net::ThroughputTrace trace = net::TraceGenerator::cellular("iso-cell", 1100, 600.0, 31);
  PlayerConfig config;

  std::vector<std::unique_ptr<AbrPolicy>> policies;
  std::vector<SessionSpec> specs;
  for (size_t k = 0; k < 3; ++k) {
    policies.push_back(make_policy(static_cast<int>(k)));
    SessionSpec spec;
    spec.video = &video;
    spec.policy = policies.back().get();
    spec.start_s = 3.7 * static_cast<double>(k);
    specs.push_back(spec);
  }
  auto results = Simulator(config).run(specs, trace, LinkMode::kDedicated);
  ASSERT_EQ(results.size(), 3u);

  // NOTE: staggered dedicated sessions read the trace at their own absolute
  // offset, so the solo baseline must start at the same offset. A flat
  // trace removes the offset; here we re-run through the Simulator at the
  // same start instead, exercising determinism of the loop itself.
  for (size_t k = 0; k < 3; ++k) {
    auto fresh = make_policy(static_cast<int>(k));
    SessionSpec spec = specs[k];
    spec.policy = fresh.get();
    auto solo = Simulator(config).run({spec}, trace, LinkMode::kDedicated);
    SCOPED_TRACE("session " + std::to_string(k));
    expect_sessions_identical(solo[0].session, results[k].session);
  }

  // And a session starting at 0 equals the plain Player run exactly.
  auto fresh = make_policy(0);
  SessionSpec spec;
  spec.video = &video;
  spec.policy = fresh.get();
  auto sim0 = Simulator(config).run({spec}, trace, LinkMode::kDedicated);
  auto player_policy = make_policy(0);
  expect_sessions_identical(Player(config).stream(video, trace, *player_policy),
                            sim0[0].session);
}

TEST_F(SimulatorEquivalence, GateHoldsAcrossRunnerThreads) {
  // The gate fanned over ExperimentRunner at 1 and 4 workers: simulator
  // cells are tasks; outputs must be bit-identical to the serial run.
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("SimGrid", media::Genre::kAnimation, 120));
  auto traces = gate_traces();
  PlayerConfig config;

  auto run_cells = [&](size_t threads) {
    core::ExperimentRunner runner(threads);
    std::vector<SessionResult> out(traces.size() * 2);
    runner.for_each(out.size(), [&](size_t i) {
      size_t t = i / 2;
      bool through_simulator = (i % 2) == 1;
      auto policy = make_policy(2);  // Fugu: the stateful, planner-backed one
      if (through_simulator) {
        SessionSpec spec;
        spec.video = &video;
        spec.policy = policy.get();
        out[i] = Simulator(config)
                     .run({spec}, traces[t], LinkMode::kDedicated)[0]
                     .session;
      } else {
        out[i] = Player(config).stream(video, traces[t], *policy);
      }
    });
    return out;
  };

  auto serial = run_cells(1);
  auto parallel = run_cells(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); i += 2) {
    SCOPED_TRACE("trace " + std::to_string(i / 2));
    // Player vs Simulator within a run, and each across thread counts.
    expect_sessions_identical(serial[i], serial[i + 1]);
    expect_sessions_identical(serial[i], parallel[i]);
    expect_sessions_identical(serial[i + 1], parallel[i + 1]);
  }
}

TEST_F(SimulatorEquivalence, ShuffledSpecOrderGivesEachSpecItsSortedResult) {
  // Spec order is an index, not a schedule: the same sessions, with
  // distinct start times, listed shuffled must give every session the
  // result it gets in the start-sorted listing, bit for bit, whether the
  // sessions contend for one link or not.
  std::vector<media::EncodedVideo> videos;
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("SpecOrderA", media::Genre::kSports, 60)));
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("SpecOrderB", media::Genre::kNature, 80)));
  std::vector<std::vector<double>> weights;
  for (const auto& video : videos) weights.emplace_back(video.num_chunks(), 1.0);
  net::ThroughputTrace trace = net::TraceGenerator::cellular("order-cell", 1800, 600.0, 47);
  PlayerConfig config;
  const std::vector<double> starts = {0.0, 1.3, 2.9, 4.4, 6.1, 7.7};
  const std::vector<size_t> shuffled = {3, 0, 5, 1, 4, 2};  // spec j runs session shuffled[j]

  for (LinkMode mode : {LinkMode::kDedicated, LinkMode::kShared}) {
    SCOPED_TRACE(to_string(mode));
    auto run = [&](const std::vector<size_t>& order) {
      std::vector<std::unique_ptr<AbrPolicy>> policies;
      std::vector<SessionSpec> specs;
      for (size_t k : order) {
        policies.push_back(make_policy(static_cast<int>(k % 3)));
        SessionSpec spec;
        spec.video = &videos[k % videos.size()];
        spec.weights = &weights[k % videos.size()];
        spec.policy = policies.back().get();
        spec.start_s = starts[k];
        specs.push_back(spec);
      }
      return Simulator(config).run(specs, trace, mode);
    };
    auto sorted = run({0, 1, 2, 3, 4, 5});
    auto reordered = run(shuffled);
    ASSERT_EQ(reordered.size(), shuffled.size());
    for (size_t j = 0; j < shuffled.size(); ++j) {
      SCOPED_TRACE("session " + std::to_string(shuffled[j]));
      EXPECT_EQ(reordered[j].start_s, sorted[shuffled[j]].start_s);
      expect_sessions_identical(sorted[shuffled[j]].session, reordered[j].session);
    }
  }
}

// --- shared-link contention behavior ----------------------------------------

TEST(SimulatorContention, SymmetricSessionsStaySymmetricAndSlower) {
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("SymShare", media::Genre::kSports, 80));
  net::ThroughputTrace trace("flat", std::vector<double>(4000, 2400.0), 1.0);
  PlayerConfig config;

  auto run_shared = [&](size_t n) {
    std::vector<std::unique_ptr<AbrPolicy>> policies;
    std::vector<SessionSpec> specs;
    for (size_t k = 0; k < n; ++k) {
      policies.push_back(std::make_unique<ScriptedPolicy>(
          std::vector<AbrDecision>{{2, 0.0}}));
      SessionSpec spec;
      spec.video = &video;
      spec.policy = policies.back().get();
      specs.push_back(spec);
    }
    return Simulator(config).run(specs, trace, LinkMode::kShared);
  };

  auto solo = run_shared(1);
  auto pair = run_shared(2);
  ASSERT_EQ(pair.size(), 2u);
  // Fairness: indistinguishable viewers get bit-identical sessions.
  expect_sessions_identical(pair[0].session, pair[1].session);
  // Contention: sharing can only slow downloads down.
  ASSERT_EQ(solo[0].session.chunks().size(), pair[0].session.chunks().size());
  double solo_total = 0.0, pair_total = 0.0;
  for (const auto& c : solo[0].session.chunks()) solo_total += c.download_time_s;
  for (const auto& c : pair[0].session.chunks()) pair_total += c.download_time_s;
  EXPECT_GT(pair_total, solo_total * 1.2);
  // On a flat link with one lone session, the shared-link path agrees with
  // the dedicated integrator to numerical precision.
  ScriptedPolicy dedicated_policy({{2, 0.0}});
  SessionResult dedicated = Player(config).stream(video, trace, dedicated_policy);
  ASSERT_EQ(dedicated.chunks().size(), solo[0].session.chunks().size());
  for (size_t i = 0; i < dedicated.chunks().size(); ++i) {
    EXPECT_NEAR(solo[0].session.chunks()[i].download_time_s,
                dedicated.chunks()[i].download_time_s, 1e-6);
  }
}

TEST(SimulatorContention, SharedOutageTruncatesEverySession) {
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("ShareOut", media::Genre::kNature, 240));
  net::ThroughputTrace cliff =
      net::ThroughputTrace("cliff", std::vector<double>(50, 2800.0), 1.0).as_finite();
  PlayerConfig config;

  std::vector<std::unique_ptr<AbrPolicy>> policies;
  std::vector<SessionSpec> specs;
  for (size_t k = 0; k < 3; ++k) {
    policies.push_back(std::make_unique<ScriptedPolicy>(std::vector<AbrDecision>{{3, 0.0}}));
    SessionSpec spec;
    spec.video = &video;
    spec.policy = policies.back().get();
    spec.start_s = 4.0 * static_cast<double>(k);
    specs.push_back(spec);
  }
  auto results = Simulator(config).run(specs, cliff, LinkMode::kShared);
  for (size_t k = 0; k < results.size(); ++k) {
    SCOPED_TRACE("session " + std::to_string(k));
    EXPECT_EQ(results[k].session.outcome(), SessionOutcome::kOutage);
    EXPECT_LT(results[k].session.chunks().size(), video.num_chunks());
    ASSERT_NE(results[k].session.timeline(), nullptr);
    std::string why;
    EXPECT_TRUE(results[k].session.timeline()->check_invariants(&why)) << why;
  }
}

TEST(SimulatorContention, StaggeredArrivalsSeeLessContentionAtTheEdges) {
  // First arrival streams alone for a while: its first chunks download at
  // full speed; mid-flight chunks contend. Sanity of the sharing dynamics.
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("Stagger", media::Genre::kGaming, 120));
  net::ThroughputTrace trace("flat", std::vector<double>(4000, 3000.0), 1.0);
  PlayerConfig config;
  config.rtt_s = 0.0;

  std::vector<std::unique_ptr<AbrPolicy>> policies;
  std::vector<SessionSpec> specs;
  for (size_t k = 0; k < 4; ++k) {
    policies.push_back(std::make_unique<ScriptedPolicy>(std::vector<AbrDecision>{{3, 0.0}}));
    SessionSpec spec;
    spec.video = &video;
    spec.policy = policies.back().get();
    spec.start_s = 2.0 * static_cast<double>(k);
    specs.push_back(spec);
  }
  auto results = Simulator(config).run(specs, trace, LinkMode::kShared);
  const auto& first = results[0].session;
  ASSERT_GT(first.chunks().size(), 8u);
  // Chunk 0 of the first session mostly downloaded before the others
  // arrived (solo or lightly contended); by chunk 6 all four viewers are
  // active and per-session goodput sits near a quarter of the link.
  ASSERT_NE(first.timeline(), nullptr);
  double first_goodput = first.timeline()->chunks()[0].goodput_kbps;
  double mid_goodput = first.timeline()->chunks()[6].goodput_kbps;
  EXPECT_LT(mid_goodput, 1100.0);
  EXPECT_GT(first_goodput, 2.0 * mid_goodput);
}

// --- Experiments multi-session grid across runner threads -------------------

TEST(MultiSessionGrid, BitIdenticalAcrossRunnerThreads) {
  std::vector<core::Experiments::MultiSessionCell> cells;
  for (size_t t = 0; t < 3; ++t) {
    core::Experiments::MultiSessionCell cell;
    cell.trace_index = t;
    cell.num_sessions = 6;
    cell.stagger_s = 5.0;
    cell.mode = t == 1 ? sim::LinkMode::kDedicated : sim::LinkMode::kShared;
    cells.push_back(cell);
  }
  auto factory = [] { return std::make_unique<abr::BbaAbr>(); };

  auto run = [&](size_t threads) {
    core::ExperimentRunner runner(threads);
    return core::Experiments::run_multisession_grid(cells, factory, false, runner);
  };
  auto serial = run(1);
  auto parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t c = 0; c < serial.size(); ++c) {
    ASSERT_EQ(serial[c].size(), parallel[c].size());
    for (size_t k = 0; k < serial[c].size(); ++k) {
      SCOPED_TRACE("cell " + std::to_string(c) + " session " + std::to_string(k));
      EXPECT_EQ(serial[c][k].start_s, parallel[c][k].start_s);
      expect_sessions_identical(serial[c][k].session, parallel[c][k].session);
    }
  }
}

TEST(RecordTimelineOptOut, ChunkRecordsAreByteIdenticalWithoutATimeline) {
  // record_timeline = false is a pure memory opt-out: no policy sees the
  // timeline, so every decision and every emitted
  // ChunkRecord must stay byte-for-byte what the recording run produced —
  // only SessionResult::timeline() disappears.
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("NoTl", media::Genre::kSports, 120));
  net::ThroughputTrace trace = net::TraceGenerator::cellular("notl-cell", 1300, 500.0, 21);

  for (int kind = 0; kind < 2; ++kind) {
    SCOPED_TRACE(kind == 0 ? "bba" : "fugu");
    auto make = [&]() -> std::unique_ptr<AbrPolicy> {
      if (kind == 0) return std::make_unique<abr::BbaAbr>();
      return std::make_unique<abr::FuguAbr>();
    };
    PlayerConfig recording;
    auto policy_a = make();
    SessionResult with = Player(recording).stream(video, trace, *policy_a);

    PlayerConfig bare;
    bare.record_timeline = false;
    auto policy_b = make();
    SessionResult without = Player(bare).stream(video, trace, *policy_b);

    ASSERT_NE(with.timeline(), nullptr);
    EXPECT_EQ(without.timeline(), nullptr);
    EXPECT_EQ(with.outcome(), without.outcome());
    EXPECT_EQ(with.startup_delay_s(), without.startup_delay_s());
    ASSERT_EQ(with.chunks().size(), without.chunks().size());
    for (size_t i = 0; i < with.chunks().size(); ++i) {
      const ChunkRecord& x = with.chunks()[i];
      const ChunkRecord& y = without.chunks()[i];
      SCOPED_TRACE("chunk " + std::to_string(i));
      EXPECT_EQ(x.index, y.index);
      EXPECT_EQ(x.level, y.level);
      EXPECT_EQ(x.bitrate_kbps, y.bitrate_kbps);
      EXPECT_EQ(x.size_bytes, y.size_bytes);
      EXPECT_EQ(x.download_start_s, y.download_start_s);
      EXPECT_EQ(x.download_time_s, y.download_time_s);
      EXPECT_EQ(x.rebuffer_s, y.rebuffer_s);
      EXPECT_EQ(x.scheduled_rebuffer_s, y.scheduled_rebuffer_s);
      EXPECT_EQ(x.buffer_after_s, y.buffer_after_s);
      EXPECT_EQ(x.visual_quality, y.visual_quality);
    }
  }
}

TEST(ChunkLimit, AbandonedSessionTruncatesAsCompletedAndMatchesPrefix) {
  // A viewer who abandons after k chunks must emit exactly the first k
  // ChunkRecords of the full watch (decisions cannot depend on a limit the
  // ABR never sees) and finish as kCompleted, not kOutage.
  auto video = media::Encoder().encode(
      media::SourceVideo::generate("Abandon", media::Genre::kNature, 120));
  net::ThroughputTrace trace = net::TraceGenerator::broadband("abandon-bb", 2600, 500.0, 22);

  abr::BbaAbr full_policy;
  SessionSpec full_spec;
  full_spec.video = &video;
  full_spec.policy = &full_policy;
  auto full = Simulator().run({full_spec}, trace, LinkMode::kDedicated);

  const size_t limit = 17;
  abr::BbaAbr cut_policy;
  SessionSpec cut_spec;
  cut_spec.video = &video;
  cut_spec.policy = &cut_policy;
  cut_spec.chunk_limit = limit;
  auto cut = Simulator().run({cut_spec}, trace, LinkMode::kDedicated);

  ASSERT_EQ(full[0].session.chunks().size(), video.num_chunks());
  ASSERT_EQ(cut[0].session.chunks().size(), limit);
  EXPECT_EQ(cut[0].session.outcome(), SessionOutcome::kCompleted);
  for (size_t i = 0; i < limit; ++i) {
    SCOPED_TRACE("chunk " + std::to_string(i));
    EXPECT_EQ(full[0].session.chunks()[i].level, cut[0].session.chunks()[i].level);
    EXPECT_EQ(full[0].session.chunks()[i].download_time_s,
              cut[0].session.chunks()[i].download_time_s);
    EXPECT_EQ(full[0].session.chunks()[i].rebuffer_s, cut[0].session.chunks()[i].rebuffer_s);
  }

  // The builder applies one limit to every generated spec.
  abr::BbaAbr p0, p1;
  StaggeredSpecs staggered;
  staggered.videos = {&video};
  staggered.policies = {&p0, &p1};
  staggered.num_sessions = 2;
  staggered.stagger_s = 3.0;
  staggered.chunk_limit = 5;
  auto specs = staggered.build();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].chunk_limit, 5u);
  EXPECT_EQ(specs[1].chunk_limit, 5u);
}

}  // namespace
}  // namespace sensei::sim
