// Network throughput traces.
//
// A trace is a step function: samples[i] holds the link throughput (Kbps)
// over [i * interval_s, (i+1) * interval_s). By default traces *loop* when a
// session outlives them, following common practice in ABR simulators; a
// trace can instead be marked *finite*, in which case the link is dead
// (0 Kbps) past `duration_s()` — finite traces model outages, captured
// real-world files, and live sessions that end.
//
// Transfers are integrated exactly by `advance()` against a cumulative-
// capacity index built at construction (prefix sums of each interval's bits
// over one period): a binary search for the finishing interval inside the
// current period, whole periods consumed in O(1) each, dead links
// classified in O(1). A transfer costs O(log n + periods spanned)
// regardless of how many intervals it crosses. The tests hold it bit for
// bit to a linear interval-by-interval scan of the same monotone predicate
// (tests/oracles/walker.h).
//
// A transfer completes exactly or reports an *outage* — the link
// has no capacity left, ever (an all-zero looping trace, or a finite trace
// exhausted mid-transfer). There is no walk cap that could silently fake a
// completed download.
//
// A trace is immutable and shared across ExperimentRunner workers, so
// everything a lookup learns lives with the caller: a TraceCursor keeps its
// finish-search hint and the exact segment memo of its start interval
// (net/segment_memo.h), and SharedLink keeps its own cursor plus the memo of
// its cumulative-capacity lookup.
#pragma once

#include <memory>
#include <string>
#include <vector>

namespace sensei::net {

// Outcome of integrating one transfer over the trace step function.
struct TransferResult {
  // Wall-clock seconds from transfer start until the last byte. On an
  // outage this is +infinity (the stall never ends).
  double elapsed_s = 0.0;
  // False when the link died: every remaining instant of the trace has zero
  // capacity (all-zero looping trace or exhausted finite trace).
  bool completed = true;
};

// One trace's payload: its samples and the cumulative-capacity index over
// one period of their step function. Built once, at construction (which
// already walks the samples to validate them), immutable from then on, and
// shared by every copy of the trace, as_finite() included.
struct TraceIndex {
  std::vector<double> samples_kbps;
  // prefix_bits[k] = bits deliverable by intervals [0, k), accumulated
  // left-to-right in double precision — the scan order every integration
  // reuses. Monotone nondecreasing; prefix_bits[n] is the capacity of
  // one full period.
  std::vector<double> prefix_bits;
};

class TraceCursor;

// A handle over one shared, immutable TraceIndex: copying a trace copies its
// name, interval, finite flag and a pointer, never the samples. Nothing
// writes to a payload once the constructor has built it, so copies held by
// different ExperimentRunner workers read it concurrently without
// synchronization; only the reference count is shared, and it is atomic. A
// default-constructed trace has no payload: no samples, and a dead link.
class ThroughputTrace {
 public:
  ThroughputTrace() = default;
  ThroughputTrace(std::string name, std::vector<double> samples_kbps, double interval_s = 1.0,
                  bool finite = false);

  const std::string& name() const { return name_; }
  double interval_s() const { return interval_s_; }
  size_t sample_count() const { return index_ ? index_->samples_kbps.size() : 0; }
  const std::vector<double>& samples_kbps() const {
    return index_ ? index_->samples_kbps : kNoSamples;
  }
  double duration_s() const { return interval_s_ * static_cast<double>(sample_count()); }

  // Finite traces do not loop: throughput past duration_s() is 0 and a
  // transfer still in flight there is an outage.
  bool finite() const { return finite_; }
  // Returns a copy of this trace with finite (non-looping) semantics; it
  // shares this trace's payload.
  ThroughputTrace as_finite() const;

  // Instantaneous throughput at time t (wraps past the end unless finite;
  // 0 on a default-constructed trace).
  double throughput_at(double t_s) const;

  // Mean and population stddev over all samples.
  double mean_kbps() const;
  double stddev_kbps() const;

  // Exact event integrator: simulates transferring `bytes` starting at
  // `start_s`, locating the last byte (or an outage) on the step function.
  // RTT is *not* included — request dead time consumes wall clock but no
  // trace capacity, so callers place it before the transfer start.
  TransferResult advance(double bytes, double start_s) const;

  // Convenience wrapper: rtt_s of request dead time, then the transfer
  // (starting at start_s + rtt_s). Returns total elapsed seconds, or
  // +infinity if the transfer hits an outage.
  double download_time_s(double bytes, double start_s, double rtt_s = 0.08) const;

  // The shared payload. Throws on a default-constructed trace, which has
  // none.
  const TraceIndex& index() const;

  // Returns a copy scaled by `factor` (used for the bandwidth-ratio sweeps).
  ThroughputTrace scaled(double factor, const std::string& new_name = "") const;

  // Returns a copy with zero-mean Gaussian noise of stddev `sigma_kbps` added
  // to every sample (floored at `floor_kbps`), as in Figure 17's variance
  // sweep. Deterministic in `seed`.
  ThroughputTrace with_noise(double sigma_kbps, uint64_t seed,
                             double floor_kbps = 50.0) const;

  // CSV persistence: one "time_s,kbps" row per sample, written with
  // max_digits10 significant digits so samples and the interval read back
  // bit for bit. The CSV carries no `finite` flag: from_csv always returns a
  // looping trace, and callers that need finite semantics apply as_finite().
  // from_csv validates the file: timestamps must be strictly increasing and
  // uniformly spaced, cells must parse as numbers; every violation, an input
  // without data rows included, raises std::runtime_error naming the
  // 1-based line number. Blank lines and '#' comments are skipped.
  std::string to_csv() const;
  static ThroughputTrace from_csv(const std::string& name, const std::string& csv);

 private:
  friend class TraceCursor;

  // The shared integration core. `cursor` (nullable) supplies a warm-start
  // phase for the finishing-interval search and the start-interval segment
  // memo; both only affect speed, never the result.
  TransferResult integrate(double bytes, double start_s, TraceCursor* cursor) const;

  static const std::vector<double> kNoSamples;

  std::string name_;
  double interval_s_ = 1.0;
  bool finite_ = false;
  std::shared_ptr<const TraceIndex> index_;  // null when default-constructed
};

// Stateful integration handle for a session's (mostly) monotonically
// advancing wall clock: remembers the phase where the previous transfer
// finished and gallops from it, so consecutive chunk downloads locate their
// finishing interval in O(1) amortized instead of O(log n) each. It also
// holds the start-interval segment memo (net/segment_memo.h): the interval
// index start_s / interval_s resolved last, with the exact range of starts
// that resolve to it, so transfers starting in the same interval skip the
// division and modulo. Results are bit-identical to ThroughputTrace::advance
// — the hint changes only where the search starts, the predicate it
// brackets is monotone, and the memo only answers starts whose reference
// key it holds. The memo lives here, not in the trace, so traces stay
// immutable and shareable across threads. Cheap to construct; keep one per
// session.
class TraceCursor {
 public:
  TraceCursor() = default;
  explicit TraceCursor(const ThroughputTrace& trace) : trace_(&trace) {}

  TransferResult advance(double bytes, double start_s);
  double download_time_s(double bytes, double start_s, double rtt_s = 0.08);

  const ThroughputTrace* trace() const { return trace_; }

 private:
  const ThroughputTrace* trace_ = nullptr;
  friend class ThroughputTrace;

  // Every start in [lo, hi) has start / interval_s truncating to idx.
  // Empty (lo == hi) until the first transfer.
  struct StartSegment {
    double lo = 0.0;
    double hi = 0.0;
    size_t idx = 0;
    size_t idx_mod = 0;  // idx % sample_count
    double end = 0.0;    // (idx + 1) * interval_s
  };

  size_t hint_ = 1;  // phase (prefix index) of the last finishing interval
  StartSegment seg_;
};

}  // namespace sensei::net
