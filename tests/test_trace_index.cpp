// Equivalence gate for the trace integrator: the indexed integrator (binary
// search over the cumulative-capacity prefix sums, O(1) period skipping)
// must reproduce the linear reference walker (tests/oracles/walker.h)
// *bit-identically* — same elapsed_s, same dead-link classification —
// across looping, finite, all-zero, outage-laden, and non-dyadic-interval
// traces, the traces the benches build, and the 100 to 100,000-interval
// fade sweep, for arbitrary transfer sizes and start times. TraceCursor
// (the warm-started session handle) must match both. Whole
// ExperimentRunner grids must not change by a bit across thread counts,
// and every transfer in them must replay exactly on the walker.
#include "net/trace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "abr/bba.h"
#include "abr/fugu.h"
#include "abr/registry.h"
#include "core/experiments.h"
#include "core/runner.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "oracles/bench_traces.h"
#include "oracles/walker.h"
#include "sim/player.h"
#include "util/rng.h"

namespace sensei::net {
namespace {

// Trace families the gate sweeps: every shape the integrator branches on.
std::vector<ThroughputTrace> gate_traces() {
  util::Rng rng(0x7ace1dec);
  std::vector<ThroughputTrace> traces;

  traces.push_back(TraceGenerator::cellular("cell", 900, 600.0, 11));
  traces.push_back(TraceGenerator::broadband("bb", 3200, 600.0, 12));
  traces.push_back(TraceGenerator::cellular("cell-finite", 1400, 300.0, 13).as_finite());

  // Zero-run-heavy looping trace: long fades the walker crosses one
  // interval at a time.
  {
    std::vector<double> samples;
    while (samples.size() < 500) {
      size_t run = static_cast<size_t>(rng.uniform_int(1, 40));
      bool fade = rng.chance(0.35);
      for (size_t i = 0; i < run; ++i) {
        samples.push_back(fade ? 0.0 : rng.uniform(50.0, 4000.0));
      }
    }
    traces.push_back(ThroughputTrace("fades", samples, 1.0));
    traces.push_back(ThroughputTrace("fades-finite", std::move(samples), 1.0, true));
  }

  // All-zero: looping (permanent outage) and finite.
  traces.push_back(ThroughputTrace("dead", std::vector<double>(64, 0.0), 1.0));
  traces.push_back(ThroughputTrace("dead-finite", std::vector<double>(64, 0.0), 1.0, true));

  // Dead tail: completes early, outage later (finite), loops around (not).
  {
    std::vector<double> samples(200, 0.0);
    for (size_t i = 0; i < 40; ++i) samples[i] = 2000.0;
    traces.push_back(ThroughputTrace("cliff", samples, 1.0));
    traces.push_back(ThroughputTrace("cliff-finite", std::move(samples), 1.0, true));
  }

  // Non-dyadic 100 ms intervals (FP boundary slivers) and an awkward 0.3 s.
  {
    std::vector<double> ms100(400);
    for (auto& s : ms100) s = rng.chance(0.2) ? 0.0 : rng.uniform(100.0, 6000.0);
    traces.push_back(ThroughputTrace("ms100", std::move(ms100), 0.1));
    std::vector<double> odd(77);
    for (auto& s : odd) s = rng.uniform(0.0, 2500.0);
    traces.push_back(ThroughputTrace("odd-interval", std::move(odd), 0.3));
  }

  // Single-interval loop (every transfer spans whole periods).
  traces.push_back(ThroughputTrace("one", {777.5}, 1.0));

  // The benches' traces and the fade sweep.
  for (auto* family : {oracles::bench_trace_families, oracles::advance_sweep_traces}) {
    for (ThroughputTrace& trace : family()) traces.push_back(std::move(trace));
  }
  return traces;
}

// Start times that probe the branchy spots of a given trace.
std::vector<double> gate_starts(const ThroughputTrace& t, util::Rng& rng) {
  double d = t.duration_s();
  std::vector<double> starts = {0.0, -3.0, d, 2.5 * d, 10.0 * d};
  // Exactly on interval boundaries, and a hair before/after.
  for (size_t k : {size_t{1}, t.sample_count() / 2, t.sample_count() - 1}) {
    double b = static_cast<double>(k) * t.interval_s();
    starts.push_back(b);
    starts.push_back(std::nextafter(b, 0.0));
    starts.push_back(std::nextafter(b, 2.0 * d));
  }
  for (int i = 0; i < 12; ++i) starts.push_back(rng.uniform(0.0, 1.5 * d));
  return starts;
}

// Transfer sizes from sub-interval to many-periods scale.
std::vector<double> gate_sizes(const ThroughputTrace& t, util::Rng& rng) {
  double period_bytes = t.mean_kbps() * 1000.0 * t.duration_s() / 8.0;
  std::vector<double> sizes = {0.0, 125.0, 5000.0, 125000.0};
  if (period_bytes > 0.0) {
    sizes.push_back(0.3 * period_bytes);
    sizes.push_back(1.0 * period_bytes);
    sizes.push_back(7.7 * period_bytes);
  } else {
    sizes.push_back(1e6);
  }
  for (int i = 0; i < 8; ++i) sizes.push_back(std::pow(10.0, rng.uniform(2.0, 8.0)));
  return sizes;
}

TEST(TraceIndexGate, AdvanceBitIdenticalToWalkerAcrossFamilies) {
  util::Rng rng(0xb17b17);
  for (const auto& trace : gate_traces()) {
    auto starts = gate_starts(trace, rng);
    auto sizes = gate_sizes(trace, rng);
    for (double start : starts) {
      for (double bytes : sizes) {
        TransferResult a = trace.advance(bytes, start);
        TransferResult b = oracles::reference_integrate(trace, bytes, start);
        SCOPED_TRACE(trace.name() + " bytes=" + std::to_string(bytes) +
                     " start=" + std::to_string(start));
        EXPECT_EQ(a.completed, b.completed);
        // Exact double equality — the two share every float op.
        EXPECT_EQ(a.elapsed_s, b.elapsed_s);

        double da = trace.download_time_s(bytes, start, 0.08);
        double db = oracles::reference_download_time_s(trace, bytes, start, 0.08);
        EXPECT_EQ(da, db);
      }
    }
  }
}

// The production integrator and the reference, side by side.
using Integrator = TransferResult (*)(const ThroughputTrace&, double, double);
TransferResult indexed_integrate(const ThroughputTrace& trace, double bytes, double start_s) {
  return trace.advance(bytes, start_s);
}
constexpr Integrator kIntegrators[] = {indexed_integrate, oracles::reference_integrate};

TEST(TraceIndexGate, DeadLinkClassificationIdentical) {
  double inf = std::numeric_limits<double>::infinity();
  for (const auto& trace : gate_traces()) {
    for (Integrator integrate : kIntegrators) {
      SCOPED_TRACE(trace.name());
      // Non-finite clocks always read as dead, in both integrators.
      EXPECT_FALSE(integrate(trace, 1000.0, inf).completed);
      EXPECT_FALSE(integrate(trace, 1000.0, std::nan("")).completed);
      // A zero-byte transfer is instantaneous even on a dead link.
      EXPECT_TRUE(integrate(trace, 0.0, 0.0).completed);
    }
  }
  // The permanent-outage families classify as dead from any start.
  ThroughputTrace dead("z", std::vector<double>(16, 0.0), 1.0);
  ThroughputTrace dead_finite = dead.as_finite();
  ThroughputTrace cliff =
      ThroughputTrace("c", {1000.0, 1000.0, 0.0, 0.0}, 1.0).as_finite();
  for (Integrator integrate : kIntegrators) {
    EXPECT_FALSE(integrate(dead, 8.0, 3.7).completed);
    EXPECT_FALSE(integrate(dead_finite, 8.0, 3.7).completed);
    EXPECT_FALSE(integrate(cliff, 300000.0, 0.0).completed);   // needs 2.4 s capacity
    EXPECT_TRUE(integrate(cliff, 200000.0, 0.0).completed);    // fits in 1.6 s
    EXPECT_FALSE(integrate(cliff, 1000.0, 100.0).completed);   // starts past the end
  }
}

TEST(TraceIndexGate, CursorMatchesStatelessAdvance) {
  util::Rng rng(0xcc5c5c);
  for (const auto& trace : gate_traces()) {
    // Monotone wall clock (the player pattern): the cursor's warm start
    // must never change a result.
    TraceCursor cursor(trace);
    double clock = 0.0;
    for (int i = 0; i < 64; ++i) {
      double bytes = std::pow(10.0, rng.uniform(2.0, 6.5));
      TransferResult c = cursor.advance(bytes, clock);
      TransferResult a = trace.advance(bytes, clock);
      TransferResult w = oracles::reference_integrate(trace, bytes, clock);
      SCOPED_TRACE(trace.name() + " i=" + std::to_string(i));
      ASSERT_EQ(c.completed, a.completed);
      ASSERT_EQ(c.elapsed_s, a.elapsed_s);
      ASSERT_EQ(c.elapsed_s, w.elapsed_s);
      if (!c.completed) break;
      clock += c.elapsed_s + rng.uniform(0.0, 2.0);
    }
    // Random-access starts (the offline-DP pattern): hints may be wildly
    // wrong; results still exact.
    TraceCursor jumpy(trace);
    for (int i = 0; i < 64; ++i) {
      double bytes = std::pow(10.0, rng.uniform(2.0, 7.0));
      double start = rng.uniform(0.0, 2.0 * trace.duration_s());
      TransferResult c = jumpy.advance(bytes, start);
      TransferResult a = oracles::reference_integrate(trace, bytes, start);
      ASSERT_EQ(c.completed, a.completed) << trace.name() << " i=" << i;
      ASSERT_EQ(c.elapsed_s, a.elapsed_s) << trace.name() << " i=" << i;
    }
  }
}

TEST(TraceIndexGate, PrefixIndexIsMonotoneAndConsistent) {
  for (const auto& trace : gate_traces()) {
    const auto& prefix = trace.index().prefix_bits;
    ASSERT_EQ(prefix.size(), trace.sample_count() + 1);
    EXPECT_EQ(prefix[0], 0.0);
    for (size_t k = 0; k < trace.sample_count(); ++k) {
      EXPECT_GE(prefix[k + 1], prefix[k]) << trace.name() << " k=" << k;
      if (trace.samples_kbps()[k] == 0.0) {
        EXPECT_EQ(prefix[k + 1], prefix[k]) << trace.name() << " k=" << k;
      }
    }
  }
}

// Whole experiment grids must be bit-identical at any thread count — the
// determinism contract the figure benches rely on — and every transfer in
// them must equal its walker replay, so a walker run of the grid would be
// identical too.
TEST(TraceIndexGridDeterminism, GridBitIdenticalAcrossModesAndThreads) {
  std::vector<media::EncodedVideo> videos;
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("IdxGridA", media::Genre::kNature, 120)));
  videos.push_back(media::Encoder().encode(
      media::SourceVideo::generate("IdxGridB", media::Genre::kGaming, 120)));
  std::vector<net::ThroughputTrace> traces = {
      TraceGenerator::cellular("idx-cell", 800, 600.0, 21),
      TraceGenerator::broadband("idx-bb", 2800, 600.0, 22),
  };
  std::vector<std::vector<double>> weights;
  for (const auto& v : videos) {
    std::vector<double> w(v.num_chunks(), 1.0);
    for (size_t i = 3; i < w.size(); i += 5) w[i] = 2.0;
    weights.push_back(std::move(w));
  }

  auto run = [&](size_t threads, bool fugu) {
    core::ExperimentRunner runner(threads);
    if (fugu) {
      return core::Experiments::run_grid(
          videos, traces, [] { return abr::make_policy("sensei-fugu"); }, weights, runner);
    }
    return core::Experiments::run_grid(
        videos, traces, [] { return std::make_unique<abr::BbaAbr>(); },
        std::vector<std::vector<double>>{}, runner);
  };

  const double rtt_s = sim::PlayerConfig().rtt_s;
  for (bool fugu : {false, true}) {
    auto base = run(1, fugu);
    for (size_t i = 0; i < base.size(); ++i) {
      const ThroughputTrace& trace = traces[i % traces.size()];
      const sim::SessionResult& session = base[i].session;
      EXPECT_EQ(oracles::first_transfer_mismatch(session, trace, rtt_s),
                session.chunks().size())
          << "fugu=" << fugu << " cell " << i;
    }
    for (size_t threads : {size_t{1}, size_t{4}}) {
      auto got = run(threads, fugu);
      ASSERT_EQ(got.size(), base.size());
      for (size_t i = 0; i < base.size(); ++i) {
        SCOPED_TRACE("fugu=" + std::to_string(fugu) + " cell " + std::to_string(i) +
                     " threads " + std::to_string(threads));
        EXPECT_EQ(got[i].true_qoe, base[i].true_qoe);
        ASSERT_EQ(got[i].session.chunks().size(), base[i].session.chunks().size());
        for (size_t j = 0; j < base[i].session.chunks().size(); ++j) {
          const auto& x = got[i].session.chunks()[j];
          const auto& y = base[i].session.chunks()[j];
          EXPECT_EQ(x.level, y.level);
          EXPECT_EQ(x.download_time_s, y.download_time_s);
          EXPECT_EQ(x.rebuffer_s, y.rebuffer_s);
          EXPECT_EQ(x.scheduled_rebuffer_s, y.scheduled_rebuffer_s);
          EXPECT_EQ(x.buffer_after_s, y.buffer_after_s);
        }
      }
    }
  }
}

}  // namespace
}  // namespace sensei::net
