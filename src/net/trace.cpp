#include "net/trace.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "net/segment_memo.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sensei::net {

namespace {

TransferResult dead_link() {
  TransferResult result;
  result.completed = false;
  result.elapsed_s = std::numeric_limits<double>::infinity();
  return result;
}

// Smallest k in (p, n] with prefix[k] - prefix[p] >= target, given that
// k = n satisfies it. The predicate is monotone in k (prefix is
// nondecreasing and rounding is order-preserving), so the bracketed binary
// search returns the same k as a linear scan of the same expression (the
// reference in tests/oracles/walker.h). `hint` (a phase from a cursor's
// previous finish) only seeds the gallop that brackets the answer.
// Chunk-scale transfers finish within a few intervals of their start, where
// a cache-hot linear scan beats binary search; session-scale transfers and
// long fades span thousands, where binary search wins by orders of
// magnitude. The search scans this many intervals exactly before
// switching — the hybrid returns the same minimal k either way, so the
// constant is pure tuning, never semantics.
constexpr size_t kLinearScanSpan = 64;

size_t find_finish(const std::vector<double>& prefix, size_t p, size_t n, double target,
                   size_t* hint) {
  auto consumed_reaches = [&](size_t k) { return prefix[k] - prefix[p] >= target; };

  // Short exact linear scan first (the common chunk-download case).
  size_t linear_end = n - p > kLinearScanSpan ? p + kLinearScanSpan : n;
  for (size_t k = p + 1; k <= linear_end; ++k) {
    if (consumed_reaches(k)) return k;
  }

  // Bracket (lo, hi]: predicate false at lo, true at hi (pred(n) holds by
  // the caller's window check). A cursor's hint from the previous finish
  // splits the bracket once before the binary search.
  size_t lo = linear_end;
  size_t hi = n;
  if (hint != nullptr && *hint > lo && *hint < hi) {
    if (consumed_reaches(*hint)) {
      hi = *hint;
    } else {
      lo = *hint;
    }
  }
  while (hi - lo > 1) {
    size_t mid = lo + (hi - lo) / 2;
    if (consumed_reaches(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace

const std::vector<double> ThroughputTrace::kNoSamples;

ThroughputTrace::ThroughputTrace(std::string name, std::vector<double> samples_kbps,
                                 double interval_s, bool finite)
    : name_(std::move(name)), interval_s_(interval_s), finite_(finite) {
  if (samples_kbps.empty()) throw std::runtime_error("trace: no samples");
  if (!std::isfinite(interval_s_) || interval_s_ <= 0.0)
    throw std::runtime_error("trace: interval must be finite and > 0");
  for (double s : samples_kbps) {
    // !(s >= 0) also rejects NaN, which every ordinary comparison lets through.
    if (!std::isfinite(s) || !(s >= 0.0))
      throw std::runtime_error("trace: throughput must be finite and >= 0");
  }
  // Cumulative-capacity index: one left-to-right pass, the accumulation
  // order every integration below reuses.
  auto index = std::make_shared<TraceIndex>();
  index->prefix_bits.resize(samples_kbps.size() + 1);
  index->prefix_bits[0] = 0.0;
  for (size_t k = 0; k < samples_kbps.size(); ++k) {
    double capacity_bits = samples_kbps[k] * 1000.0 * interval_s_;
    index->prefix_bits[k + 1] = index->prefix_bits[k] + capacity_bits;
  }
  index->samples_kbps = std::move(samples_kbps);
  index_ = std::move(index);
}

ThroughputTrace ThroughputTrace::as_finite() const {
  if (!index_) throw std::runtime_error("trace: no samples");
  ThroughputTrace finite = *this;
  finite.finite_ = true;
  return finite;
}

const TraceIndex& ThroughputTrace::index() const {
  if (!index_) throw std::runtime_error("trace: default-constructed trace has no index");
  return *index_;
}

double ThroughputTrace::throughput_at(double t_s) const {
  // A non-finite clock (e.g. the +inf wall time an outage produces) has no
  // sample; casting it to an index would be UB. The link reads as dead, as
  // it does on a default-constructed trace, which has no samples.
  if (!std::isfinite(t_s) || !index_) return 0.0;
  if (t_s < 0.0) t_s = 0.0;
  if (finite_ && t_s >= duration_s()) return 0.0;
  const std::vector<double>& samples = index_->samples_kbps;
  auto idx = static_cast<size_t>(t_s / interval_s_);
  return samples[idx % samples.size()];
}

double ThroughputTrace::mean_kbps() const { return util::mean(samples_kbps()); }

double ThroughputTrace::stddev_kbps() const { return util::stddev(samples_kbps()); }

TransferResult ThroughputTrace::integrate(double bytes, double start_s,
                                          TraceCursor* cursor) const {
  TransferResult result;
  if (bytes <= 0.0) return result;
  // A transfer "started" at non-finite time (downstream of an earlier
  // outage) can never complete; index arithmetic from it would be UB.
  if (!std::isfinite(start_s)) return dead_link();
  if (start_s < 0.0) start_s = 0.0;
  if (!index_) return dead_link();  // default-constructed empty trace

  const std::vector<double>& samples = index_->samples_kbps;
  const std::vector<double>& prefix = index_->prefix_bits;
  const size_t n = samples.size();
  double remaining_bits = bytes * 8.0;

  // --- the (possibly partial) interval the transfer starts in -------------
  // A cursor's segment memo answers the key start_s / interval_s_ and its
  // products for every start inside its range (net/segment_memo.h). A
  // start inside the range has the key of one that passed the range guard
  // below, so it passes too.
  size_t idx;
  size_t idx_mod;  // idx % n
  double span;
  TraceCursor::StartSegment* seg = cursor != nullptr ? &cursor->seg_ : nullptr;
  if (seg != nullptr && start_s >= seg->lo && start_s < seg->hi) {
    idx = seg->idx;
    idx_mod = seg->idx_mod;
    span = seg->end - start_s;
  } else {
    const double key = start_s / interval_s_;
    // A start so far out that interval indices exceed the exactly-
    // representable integer range cannot be located reliably; such a clock
    // only arises downstream of an earlier unbounded stall, so the link
    // reads as dead.
    if (key >= 9.0e15) return dead_link();
    idx = static_cast<size_t>(key);
    idx_mod = idx % n;
    const double interval_end = static_cast<double>(idx + 1) * interval_s_;
    span = interval_end - start_s;
    if (seg != nullptr) {
      seg->idx = idx;
      seg->idx_mod = idx_mod;
      seg->end = interval_end;
      seg->lo = start_s;
      seg->hi = segment_end(start_s, interval_end, [&](double x) {
        return static_cast<size_t>(x / interval_s_) == idx;
      });
    }
  }
  if (finite_ && idx >= n) return dead_link();
  if (!(span > 0.0)) {
    // The start rounded onto (or past) this interval's end: a zero-width
    // sliver with no capacity to consume.
    while (true) {
      ++idx;
      if (finite_ && idx >= n) return dead_link();
      span = static_cast<double>(idx + 1) * interval_s_ - start_s;
      if (span > 0.0) break;
    }
    idx_mod = idx % n;
  }
  double kbps = samples[idx_mod];
  if (kbps > 0.0) {
    double bps = kbps * 1000.0;
    double capacity_bits = bps * span;
    if (capacity_bits >= remaining_bits) {
      result.elapsed_s = remaining_bits / bps;
      return result;
    }
    remaining_bits -= capacity_bits;
  }

  // --- full intervals, one period window at a time -------------------------
  // The finishing interval is the smallest k with "capacity consumed since
  // the window's phase >= bits remaining", evaluated from the shared prefix
  // sums. Looping traces consume whole periods in O(1) between windows.
  const size_t b = idx + 1;  // absolute index of the first full interval
  const double period_bits = prefix[n];
  size_t base;   // absolute index of the current window's phase 0
  size_t phase;  // prefix index the window starts at
  if (finite_) {
    base = 0;
    phase = b;
  } else {
    phase = idx_mod + 1 == n ? 0 : idx_mod + 1;  // b % n
    base = b - phase;
    if (period_bits > 0.0) {
      // A transfer that would finish beyond the exactly-representable
      // interval range cannot be timed reliably (the start_s guard's twin);
      // classify it as dead instead of marching periods toward it. The
      // bound overestimates capacity, so any transfer it rejects would
      // finish past index ~9e15.
      if (remaining_bits > period_bits * (9.0e15 / static_cast<double>(n))) {
        return dead_link();
      }
    }
  }
  while (true) {
    if (finite_ && phase >= n) return dead_link();
    double window_bits = prefix[n] - prefix[phase];
    if (window_bits >= remaining_bits) {
      size_t* hint = cursor != nullptr ? &cursor->hint_ : nullptr;
      size_t k = find_finish(prefix, phase, n, remaining_bits, hint);
      if (hint != nullptr) *hint = k;
      size_t finish = base + k - 1;  // absolute finishing interval
      double r = remaining_bits - (prefix[k - 1] - prefix[phase]);
      double bps = samples[k - 1] * 1000.0;
      double interval_start = static_cast<double>(finish) * interval_s_;
      result.elapsed_s = (interval_start - start_s) + r / bps;
      return result;
    }
    if (finite_) return dead_link();
    // A zero-capacity period can never deliver the rest: the link is dead
    // (an all-zero looping trace — prefix[n] > 0 whenever any sample is).
    if (period_bits <= 0.0) return dead_link();
    double next_remaining = remaining_bits - window_bits;
    // No numeric progress (the period's capacity is below the remaining
    // bits' rounding grain): the transfer can never be timed; treat the
    // link as dead rather than looping forever.
    if (!(next_remaining < remaining_bits)) return dead_link();
    remaining_bits = next_remaining;
    base += n;
    phase = 0;
  }
}

TransferResult ThroughputTrace::advance(double bytes, double start_s) const {
  return integrate(bytes, start_s, nullptr);
}

double ThroughputTrace::download_time_s(double bytes, double start_s, double rtt_s) const {
  // RTT is request dead time: it burns wall clock *before* the first byte
  // and consumes no trace capacity, so the transfer integrates from
  // start_s + rtt_s (not from start_s, which would let the request "use"
  // link capacity it never touched).
  if (bytes <= 0.0) return rtt_s;
  TransferResult transfer = advance(bytes, start_s + rtt_s);
  if (!transfer.completed) return std::numeric_limits<double>::infinity();
  return rtt_s + transfer.elapsed_s;
}

TransferResult TraceCursor::advance(double bytes, double start_s) {
  return trace_->integrate(bytes, start_s, this);
}

double TraceCursor::download_time_s(double bytes, double start_s, double rtt_s) {
  if (bytes <= 0.0) return rtt_s;
  TransferResult transfer = advance(bytes, start_s + rtt_s);
  if (!transfer.completed) return std::numeric_limits<double>::infinity();
  return rtt_s + transfer.elapsed_s;
}

ThroughputTrace ThroughputTrace::scaled(double factor, const std::string& new_name) const {
  if (factor < 0.0) throw std::runtime_error("trace: negative scale factor");
  std::vector<double> scaled_samples = samples_kbps();
  for (double& s : scaled_samples) s *= factor;
  return ThroughputTrace(new_name.empty() ? name_ + "-x" + std::to_string(factor) : new_name,
                         std::move(scaled_samples), interval_s_, finite_);
}

ThroughputTrace ThroughputTrace::with_noise(double sigma_kbps, uint64_t seed,
                                            double floor_kbps) const {
  util::Rng rng(seed);
  std::vector<double> noisy = samples_kbps();
  for (double& s : noisy) s = std::max(floor_kbps, s + rng.normal(0.0, sigma_kbps));
  return ThroughputTrace(name_ + "+noise", std::move(noisy), interval_s_, finite_);
}

std::string ThroughputTrace::to_csv() const {
  std::ostringstream os;
  // max_digits10 significant digits: every double reads back bit for bit.
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "time_s,throughput_kbps\n";
  const std::vector<double>& samples = samples_kbps();
  for (size_t i = 0; i < samples.size(); ++i) {
    os << static_cast<double>(i) * interval_s_ << ',' << samples[i] << '\n';
  }
  return os.str();
}

namespace {

// Parses one numeric cell or throws with the trace name, 1-based line
// number, and the offending text. std::strtod rather than std::stod: stod
// throws on ERANGE, which strtod also sets when a subnormal sample (one
// to_csv wrote) underflows on the way back. An underflow returns the
// nearest representable value, so only overflow (+-HUGE_VAL, caught as
// non-finite below) is an error.
double parse_cell(const std::string& name, size_t line_no, const std::string& text,
                  const char* what) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  size_t consumed = static_cast<size_t>(end - begin);
  // Trailing garbage after the number ("1.5abc") is malformed too.
  while (consumed < text.size() && (text[consumed] == ' ' || text[consumed] == '\t')) {
    ++consumed;
  }
  // strtod happily parses "nan" and "inf"; both poison trace timing
  // silently (NaN passes every ordered comparison downstream).
  if (end == begin || consumed != text.size() || !std::isfinite(value)) {
    throw std::runtime_error("trace csv (" + name + ") line " + std::to_string(line_no) +
                             ": malformed " + what + " '" + text + "'");
  }
  return value;
}

}  // namespace

ThroughputTrace ThroughputTrace::from_csv(const std::string& name, const std::string& csv) {
  std::istringstream is(csv);
  std::string line;
  std::vector<double> times;
  std::vector<double> samples;
  std::vector<size_t> line_of_row;
  size_t line_no = 0;
  auto fail = [&](const std::string& what) -> void {
    throw std::runtime_error("trace csv (" + name + ") line " + std::to_string(line_no) +
                             ": " + what);
  };
  while (std::getline(is, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;                         // blank
    if (line[first] == '#') continue;                                 // comment
    if (line.find("time_s") != std::string::npos) continue;           // header
    auto comma = line.find(',');
    if (comma == std::string::npos) fail("expected 'time_s,throughput_kbps'");
    double t = parse_cell(name, line_no, line.substr(0, comma), "timestamp");
    double kbps = parse_cell(name, line_no, line.substr(comma + 1), "throughput");
    if (kbps < 0.0) fail("negative throughput " + std::to_string(kbps));
    if (!times.empty() && t <= times.back()) {
      fail("non-monotonic timestamp " + std::to_string(t) + " after " +
           std::to_string(times.back()));
    }
    times.push_back(t);
    samples.push_back(kbps);
    line_of_row.push_back(line_no);
  }
  if (samples.empty()) {
    ++line_no;  // where a data row was expected: the end of the input
    fail("no data rows");
  }
  double interval = 1.0;
  if (times.size() >= 2) {
    interval = times[1] - times[0];
    if (!std::isfinite(interval)) {
      line_no = line_of_row[1];
      fail("timestamp spacing overflows");
    }
    // The step-function model needs uniform spacing; a single irregular gap
    // would silently mistime every later sample, so reject it loudly.
    for (size_t i = 2; i < times.size(); ++i) {
      double gap = times[i] - times[i - 1];
      if (std::abs(gap - interval) > 1e-6 * std::max(1.0, std::abs(interval))) {
        line_no = line_of_row[i];
        fail("non-uniform timestamp spacing " + std::to_string(gap) + " (expected " +
             std::to_string(interval) + ")");
      }
    }
  }
  return ThroughputTrace(name, std::move(samples), interval);
}

}  // namespace sensei::net
