// Ulp-adjacent property gate for the exact segment memos (net/segment_memo.h)
// behind SharedLink::cumulative_bits, SharedLink::next_completion_s and
// TraceCursor::advance. The memos skip the division / floor / modulo that
// map an instant to its interval only for instants whose key they already
// hold, so their values must equal the reference formulas bit for bit: the
// pre-memo cumulative_bits kept here, and the walker integration of
// tests/oracles/walker.h (the start of integrate() exactly as it read
// before the memo, the finishing interval found by a linear scan).
//
// Probe instants sit on every interval boundary and period wrap of eight
// periods, +-4 ulps around each, plus interval midpoints, for intervals
// {1.0, 0.1, 1/3, 2.5} s on looping and finite traces. Lookups run in
// increasing order (the event loop's order, the only one a link's clock
// allows) and, for the const lookup and the cursor, in shuffled order. The
// next-completion gate also runs on the traces `bench_figures --fig 6`
// and bench_multisession build (tests/oracles/bench_traces.h), at +-1 ulp
// around every boundary of two of their periods.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "net/shared_link.h"
#include "net/trace.h"
#include "oracles/bench_traces.h"
#include "oracles/walker.h"
#include "util/rng.h"

namespace sensei::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// cumulative_bits(t) as computed before the memo.
double reference_cumulative_bits(const ThroughputTrace& trace, double t) {
  const std::vector<double>& prefix = trace.index().prefix_bits;
  const size_t n = trace.sample_count();
  const double period_bits = prefix[n];
  if (!(t > 0.0)) return 0.0;
  if (!std::isfinite(t)) {
    if (trace.finite() || period_bits <= 0.0) return period_bits;
    return kInf;
  }
  const double interval = trace.interval_s();
  const double period_s = interval * static_cast<double>(n);
  if (trace.finite() && t >= period_s) return period_bits;
  double whole = std::floor(t / period_s);
  double rem = t - whole * period_s;
  auto idx = static_cast<size_t>(rem / interval);
  if (idx >= n) idx = n - 1;
  double span = rem - static_cast<double>(idx) * interval;
  if (span > interval) span = interval;
  return whole * period_bits + prefix[idx] + trace.samples_kbps()[idx] * 1000.0 * span;
}

bool same_result(const TransferResult& a, const TransferResult& b) {
  return a.completed == b.completed && a.elapsed_s == b.elapsed_s;
}

std::vector<ThroughputTrace> memo_traces() {
  // Seven intervals with a zero-capacity one, so transfers cross a dead
  // interval and capacity sums are not dyadic.
  const std::vector<double> samples = {1200.0, 3300.0, 0.0, 850.0, 2700.0, 1900.0, 640.0};
  std::vector<ThroughputTrace> traces;
  for (double interval : {1.0, 0.1, 1.0 / 3.0, 2.5}) {
    ThroughputTrace looping("loop-" + std::to_string(interval), samples, interval);
    traces.push_back(looping);
    traces.push_back(looping.as_finite());
  }
  return traces;
}

// Sorted, distinct, positive probe instants: every boundary k * interval
// and every period-relative boundary whole * period + i * interval, +-ulps
// ulps, plus the midpoint of every interval, over `periods[j]` periods from
// period `first_periods[j]`. The default covers the first four periods and
// two pairs of later periods (coarser ulps, other rounding).
std::vector<double> probe_instants(const ThroughputTrace& trace,
                                   const std::vector<size_t>& first_periods = {0, 97, 1013},
                                   const std::vector<size_t>& periods = {4, 2, 2},
                                   int ulps = 4) {
  const double interval = trace.interval_s();
  const size_t n = trace.sample_count();
  const double period_s = interval * static_cast<double>(n);
  std::vector<double> out;
  auto around = [&](double b) {
    double lo = b, hi = b;
    for (int k = 0; k < ulps; ++k) {
      lo = std::nextafter(lo, -kInf);
      hi = std::nextafter(hi, kInf);
    }
    for (double x = lo; x <= hi; x = std::nextafter(x, kInf)) {
      if (x > 0.0) out.push_back(x);
    }
  };
  for (size_t j = 0; j < first_periods.size(); ++j) {
    const size_t first_period = first_periods[j];
    for (size_t k = first_period * n; k <= (first_period + periods[j]) * n; ++k) {
      around(static_cast<double>(k) * interval);
      const double whole = static_cast<double>(k / n);
      around(whole * period_s + static_cast<double>(k % n) * interval);
      out.push_back((static_cast<double>(k) + 0.5) * interval);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<double> shuffled(std::vector<double> v, uint64_t seed) {
  util::Rng rng(seed);
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<size_t>(rng.uniform_int(0, static_cast<int>(i) - 1))]);
  }
  return v;
}

std::string hex(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", x);
  return buf;
}

TEST(SegmentMemo, CumulativeBitsMatchesReferenceAtUlpAdjacentInstants) {
  size_t lookups = 0;
  for (const ThroughputTrace& trace : memo_traces()) {
    SCOPED_TRACE(trace.name() + (trace.finite() ? " finite" : " looping"));
    const std::vector<double> instants = probe_instants(trace);
    SharedLink in_order(trace);
    SharedLink any_order(trace);
    for (double t : instants) {
      ASSERT_EQ(in_order.cumulative_bits(t), reference_cumulative_bits(trace, t)) << hex(t);
      ++lookups;
    }
    for (double t : shuffled(instants, 0x5e9)) {
      ASSERT_EQ(any_order.cumulative_bits(t), reference_cumulative_bits(trace, t)) << hex(t);
      ++lookups;
    }
  }
  EXPECT_GT(lookups, 9000u);
}

TEST(SegmentMemo, CursorAdvanceMatchesReferenceAtUlpAdjacentStarts) {
  // Transfers ending inside the start interval, a few intervals later, and
  // more than a period later.
  const std::vector<double> sizes = {40.0, 900.0, 2.5e4, 3.0e6};
  size_t lookups = 0;
  for (const ThroughputTrace& trace : memo_traces()) {
    SCOPED_TRACE(trace.name() + (trace.finite() ? " finite" : " looping"));
    const std::vector<double> instants = probe_instants(trace);
    for (double bytes : sizes) {
      SCOPED_TRACE("bytes " + std::to_string(bytes));
      TraceCursor in_order(trace);
      TraceCursor any_order(trace);
      for (double t : instants) {
        const TransferResult expected =
            oracles::reference_integrate(trace, bytes * trace.interval_s(), t);
        ASSERT_TRUE(same_result(in_order.advance(bytes * trace.interval_s(), t), expected))
            << hex(t);
        ASSERT_TRUE(same_result(trace.advance(bytes * trace.interval_s(), t), expected))
            << hex(t);
        ++lookups;
      }
      for (double t : shuffled(instants, 0xc0de)) {
        ASSERT_TRUE(
            same_result(any_order.advance(bytes * trace.interval_s(), t),
                        oracles::reference_integrate(trace, bytes * trace.interval_s(), t)))
            << hex(t);
        ++lookups;
      }
    }
  }
  EXPECT_GT(lookups, 36000u);
}

// A link carrying one transfer too large to finish inside the probe window
// (1100 periods of capacity; the last probe lies in period 1015) is
// advanced through every probe instant; at each one its next completion
// must be the reference integration of the transfer's remaining bits from
// the link's clock. With a single transfer joined at time 0 the remaining
// bits are total - granted, the link's own min_remaining expression.
size_t expect_next_completion_matches_reference(const ThroughputTrace& trace,
                                                const std::vector<double>& instants) {
  SCOPED_TRACE(trace.name() + (trace.finite() ? " finite" : " looping"));
  SharedLink link(trace);
  const double period_bits = trace.index().prefix_bits.back();
  const size_t id = link.begin(1100.0 * period_bits / 8.0, 0.0);
  size_t lookups = 0;
  for (double t : instants) {
    link.advance_to(t);
    const SharedLink::TransferView view = link.view(id);
    EXPECT_FALSE(view.finished);
    if (view.finished) break;
    const double remaining = view.total_bits - view.granted_bits;
    const TransferResult r = oracles::reference_integrate(trace, remaining / 8.0, link.now_s());
    const double expected = r.completed ? link.now_s() + r.elapsed_s : kInf;
    EXPECT_EQ(link.next_completion_s(), expected) << hex(t);
    if (link.next_completion_s() != expected) break;
    ++lookups;
  }
  return lookups;
}

TEST(SegmentMemo, NextCompletionMatchesReferenceAtUlpAdjacentInstants) {
  size_t lookups = 0;
  for (const ThroughputTrace& trace : memo_traces()) {
    lookups += expect_next_completion_matches_reference(trace, probe_instants(trace));
  }
  EXPECT_GT(lookups, 4000u);
  // The benches' traces: the first period and period 97, +-1 ulp.
  size_t bench_lookups = 0;
  for (const ThroughputTrace& trace : oracles::bench_trace_families()) {
    bench_lookups += expect_next_completion_matches_reference(
        trace, probe_instants(trace, {0, 97}, {1, 1}, 1));
  }
  EXPECT_GT(bench_lookups, 70000u);
}

}  // namespace
}  // namespace sensei::net
