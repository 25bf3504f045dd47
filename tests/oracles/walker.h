// Reference trace integration: ThroughputTrace::advance as written before
// the cursor's segment memo and the indexed finish search, with the
// finishing interval found by a linear interval-by-interval scan of the same
// prefix predicate ("capacity consumed through interval k >= bits
// remaining"). The production integrator (net/trace.cpp) brackets that
// predicate with a binary search instead, so the two must agree bit for bit
// on every transfer: elapsed_s and the dead-link classification. The trace
// index, segment-memo and oracle-grid tests hold them to that.
//
// first_transfer_mismatch() replays a whole session's transfers against the
// reference: a run on the walker is identical to the indexed run exactly
// when every integration on its path matches, since the first integration
// that differed would show in its chunk's download time.
#pragma once

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "net/trace.h"
#include "sim/session.h"

namespace sensei::oracles {

inline net::TransferResult reference_integrate(const net::ThroughputTrace& trace, double bytes,
                                               double start_s) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  net::TransferResult dead;
  dead.completed = false;
  dead.elapsed_s = kInf;
  net::TransferResult result;
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

  // The (possibly partial) interval the transfer starts in; a start that
  // rounds onto an interval's end moves on to the next one.
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

  // Full intervals, one period window at a time; the finishing interval is
  // found by scanning forward from the window's phase.
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

// ThroughputTrace::download_time_s over the reference integrator: rtt_s of
// request dead time, then the transfer from start_s + rtt_s; +infinity on
// an outage.
inline double reference_download_time_s(const net::ThroughputTrace& trace, double bytes,
                                        double start_s, double rtt_s) {
  if (bytes <= 0.0) return rtt_s;
  net::TransferResult transfer = reference_integrate(trace, bytes, start_s + rtt_s);
  if (!transfer.completed) return std::numeric_limits<double>::infinity();
  return rtt_s + transfer.elapsed_s;
}

// For a session that started at wall clock 0 with no fault plan (so each
// chunk's download time is rtt_s plus one transfer from its download start
// plus rtt_s): the index of the first chunk whose download_time_s differs
// from the reference re-derivation bitwise, or chunks().size() when every
// transfer matches.
inline size_t first_transfer_mismatch(const sim::SessionResult& session,
                                      const net::ThroughputTrace& trace, double rtt_s) {
  const std::vector<sim::ChunkRecord>& chunks = session.chunks();
  for (size_t i = 0; i < chunks.size(); ++i) {
    const sim::ChunkRecord& c = chunks[i];
    if (reference_download_time_s(trace, c.size_bytes, c.download_start_s, rtt_s) !=
        c.download_time_s) {
      return i;
    }
  }
  return chunks.size();
}

}  // namespace sensei::oracles
