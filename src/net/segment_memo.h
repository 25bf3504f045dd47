// Exact segment memo support for the trace lookups on the fleet's hot path.
//
// SharedLink::cumulative_bits(t) and the start-interval lookup of
// ThroughputTrace::integrate both map an instant t to an integer key —
// (whole period, interval index) and interval index respectively — with a
// division, a floor or truncation, and a modulo, then finish with cheap
// arithmetic that depends on t only through that key. Each key is a
// monotone function of t (correctly rounded division, subtraction and
// truncation are all order-preserving), so the set of instants that map to
// one key is a contiguous range of doubles. A memo that stores the key, the
// products derived from it, and a range [lo, hi) inside that preimage can
// therefore answer every lookup in the range with the reference arithmetic
// minus the division: the result is the reference result bit for bit.
//
// hi is found once per key by evaluating the reference key expression at
// instants one ulp apart, starting from an estimate of the boundary. The
// search is bounded; when it exceeds its budget the memo stays empty
// (hi == lo) and every lookup takes the reference path. The memos live in
// the mutable objects that perform lookups (SharedLink, TraceCursor), never
// in ThroughputTrace, which stays immutable and shared across threads.
#pragma once

#include <cstdint>
#include <cstring>

namespace sensei::net {

// One ulp up / down for a non-negative finite double: its bit pattern read
// as an unsigned integer is monotone in the value, so +-1 steps to the
// adjacent representable instant. ulp_down must not be called on 0.
inline double ulp_up(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  ++bits;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

inline double ulp_down(double x) {
  uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  --bits;
  std::memcpy(&x, &bits, sizeof(x));
  return x;
}

// Ulp steps the boundary search may take before giving up. The estimates
// the callers pass land within a few ulps of the true boundary.
constexpr int kSegmentSearchUlps = 32;

// Smallest instant > t whose key differs from t's key, where `same_key(x)`
// evaluates the reference key expression at x and compares it with t's key.
// Requires t >= 0 and a key that is monotone in t. `estimate` is the
// caller's guess of the boundary. Returns t (an empty range) when the
// search exceeds kSegmentSearchUlps steps.
template <class SameKey>
double segment_end(double t, double estimate, SameKey same_key) {
  double c = estimate > t ? estimate : ulp_up(t);
  if (same_key(c)) {
    // [t, c] shares the key: walk up to the first instant that does not.
    for (int step = 0; step < kSegmentSearchUlps; ++step) {
      c = ulp_up(c);
      if (!same_key(c)) return c;
    }
    return t;
  }
  // c is past the boundary: walk down while the instant below also is.
  for (int step = 0; step < kSegmentSearchUlps; ++step) {
    const double below = ulp_down(c);
    if (!(below > t) || same_key(below)) return c;
    c = below;
  }
  return t;
}

}  // namespace sensei::net
