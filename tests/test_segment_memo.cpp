// Ulp-adjacent property gate for the exact segment memos (net/segment_memo.h)
// behind SharedLink::cumulative_bits, SharedLink::next_completion_s and
// TraceCursor::advance. The memos skip the division / floor / modulo that
// map an instant to its interval only for instants whose key they already
// hold, so their values must equal the reference formulas bit for bit. The
// reference formulas live on here as the oracle: cumulative_bits and the
// start of integrate() exactly as they read before the memo, with the
// finishing interval found by the linear walker scan.
//
// Probe instants sit on every interval boundary and period wrap of eight
// periods, +-4 ulps around each, plus interval midpoints, for intervals
// {1.0, 0.1, 1/3, 2.5} s on looping and finite traces. Lookups run in
// increasing order (the event loop's order, the only one a link's clock
// allows) and, for the const lookup and the cursor, in shuffled order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "net/shared_link.h"
#include "net/trace.h"
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

// ThroughputTrace::integrate as computed before the memo, with the walker's
// linear scan for the finishing interval.
TransferResult reference_integrate(const ThroughputTrace& trace, double bytes, double start_s) {
  TransferResult dead;
  dead.completed = false;
  dead.elapsed_s = kInf;
  TransferResult result;
  if (bytes <= 0.0) return result;
  if (!std::isfinite(start_s)) return dead;
  if (start_s < 0.0) start_s = 0.0;
  const double interval_s = trace.interval_s();
  if (start_s / interval_s >= 9.0e15) return dead;
  const bool finite = trace.finite();
  const std::vector<double>& samples = trace.samples_kbps();
  const size_t n = samples.size();
  const std::vector<double>& prefix = trace.index().prefix_bits;
  double remaining_bits = bytes * 8.0;

  auto idx = static_cast<size_t>(start_s / interval_s);
  double span;
  while (true) {
    if (finite && idx >= n) return dead;
    double interval_end = static_cast<double>(idx + 1) * interval_s;
    span = interval_end - start_s;
    if (span > 0.0) break;
    ++idx;
  }
  double kbps = samples[idx % n];
  if (kbps > 0.0) {
    double bps = kbps * 1000.0;
    double capacity_bits = bps * span;
    if (capacity_bits >= remaining_bits) {
      result.elapsed_s = remaining_bits / bps;
      return result;
    }
    remaining_bits -= capacity_bits;
  }

  const size_t b = idx + 1;
  const double period_bits = prefix[n];
  size_t base;
  size_t phase;
  if (finite) {
    base = 0;
    phase = b;
  } else {
    phase = b % n;
    base = b - phase;
    if (period_bits > 0.0 &&
        remaining_bits > period_bits * (9.0e15 / static_cast<double>(n))) {
      return dead;
    }
  }
  while (true) {
    if (finite && phase >= n) return dead;
    double window_bits = prefix[n] - prefix[phase];
    if (window_bits >= remaining_bits) {
      size_t k = phase + 1;
      while (!(prefix[k] - prefix[phase] >= remaining_bits)) ++k;
      size_t finish = base + k - 1;
      double r = remaining_bits - (prefix[k - 1] - prefix[phase]);
      double bps = samples[k - 1] * 1000.0;
      double interval_start = static_cast<double>(finish) * interval_s;
      result.elapsed_s = (interval_start - start_s) + r / bps;
      return result;
    }
    if (finite) return dead;
    if (period_bits <= 0.0) return dead;
    double next_remaining = remaining_bits - window_bits;
    if (!(next_remaining < remaining_bits)) return dead;
    remaining_bits = next_remaining;
    base += n;
    phase = 0;
  }
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
// and every period-relative boundary whole * period + i * interval, +-4
// ulps, plus the midpoint of every interval, over the first four periods
// and two pairs of later periods (coarser ulps, other rounding).
std::vector<double> probe_instants(const ThroughputTrace& trace) {
  const double interval = trace.interval_s();
  const size_t n = trace.sample_count();
  const double period_s = interval * static_cast<double>(n);
  std::vector<double> out;
  auto around = [&](double b) {
    double lo = b, hi = b;
    for (int k = 0; k < 4; ++k) {
      lo = std::nextafter(lo, -kInf);
      hi = std::nextafter(hi, kInf);
    }
    for (double x = lo; x <= hi; x = std::nextafter(x, kInf)) {
      if (x > 0.0) out.push_back(x);
    }
  };
  for (size_t first_period : {0u, 97u, 1013u}) {
    const size_t periods = first_period == 0 ? 4 : 2;
    for (size_t k = first_period * n; k <= (first_period + periods) * n; ++k) {
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
        const TransferResult expected = reference_integrate(trace, bytes * trace.interval_s(), t);
        ASSERT_TRUE(same_result(in_order.advance(bytes * trace.interval_s(), t), expected))
            << hex(t);
        ASSERT_TRUE(same_result(trace.advance(bytes * trace.interval_s(), t), expected))
            << hex(t);
        ++lookups;
      }
      for (double t : shuffled(instants, 0xc0de)) {
        ASSERT_TRUE(same_result(any_order.advance(bytes * trace.interval_s(), t),
                                reference_integrate(trace, bytes * trace.interval_s(), t)))
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
TEST(SegmentMemo, NextCompletionMatchesReferenceAtUlpAdjacentInstants) {
  size_t lookups = 0;
  for (const ThroughputTrace& trace : memo_traces()) {
    SCOPED_TRACE(trace.name() + (trace.finite() ? " finite" : " looping"));
    SharedLink link(trace);
    const double period_bits = trace.index().prefix_bits.back();
    const size_t id = link.begin(1100.0 * period_bits / 8.0, 0.0);
    for (double t : probe_instants(trace)) {
      link.advance_to(t);
      const SharedLink::TransferView view = link.view(id);
      ASSERT_FALSE(view.finished);
      const double remaining = view.total_bits - view.granted_bits;
      const TransferResult r = reference_integrate(trace, remaining / 8.0, link.now_s());
      const double expected = r.completed ? link.now_s() + r.elapsed_s : kInf;
      ASSERT_EQ(link.next_completion_s(), expected) << hex(t);
      ++lookups;
    }
  }
  EXPECT_GT(lookups, 4000u);
}

}  // namespace
}  // namespace sensei::net
