#include "net/shared_link.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "net/segment_memo.h"

namespace sensei::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// A transfer completes when its remaining bits fall within one bit of zero.
// The slack absorbs the rounding drift between the credit accumulator and
// the trace integrator (both exact to ~1e-4 bits at session scale); one bit
// is sub-microsecond timing error at any realistic bandwidth, and far below
// any real chunk, so it can never complete a transfer spuriously early.
constexpr double kFinishEpsBits = 1.0;

}  // namespace

SharedLink::SharedLink(const ThroughputTrace& trace, bool recycle_ids)
    : trace_(&trace), recycle_ids_(recycle_ids), cursor_(trace) {
  trace.index();  // fail fast on a default-constructed trace
}

void SharedLink::finish_min() {
  const size_t id = credits_.min_index();
  credits_.update(id, kInf);
  next_completion_valid_ = false;
  transfers_[id].finished = true;
  transfers_[id].finish_s = now_s_;
  completions_.push_back({id, now_s_});
}

bool SharedLink::finish_due() {
  bool any = false;
  while (!credits_.empty() && credits_.min_time() - drained_bits_ <= kFinishEpsBits) {
    finish_min();
    any = true;
  }
  return any;
}

double SharedLink::cumulative_bits(double t) const {
  const double interval = trace_->interval_s();
  // Every instant in the memo's range passes the checks below: the range
  // starts at a finite t > 0 that passed them, and on a finite trace it
  // ends by period_s, because x < period_s rounds x / period_s below 1, so
  // whole = 0 holds exactly on [0, period_s).
  if (!(t >= cum_seg_.lo && t < cum_seg_.hi)) {
    const std::vector<double>& prefix = trace_->index().prefix_bits;
    const size_t n = trace_->sample_count();
    const double period_bits = prefix[n];
    if (!(t > 0.0)) return 0.0;
    // t = +inf: a finite trace caps at one period; a looping trace delivers
    // without bound — unless its period carries nothing (dead link: 0).
    if (!std::isfinite(t)) {
      if (trace_->finite() || period_bits <= 0.0) return period_bits;
      return kInf;
    }
    const double period_s = interval * static_cast<double>(n);
    if (trace_->finite() && t >= period_s) return period_bits;
    // The reference key: whole periods, then the interval inside the period.
    auto key_at = [&](double x, double* whole) {
      *whole = std::floor(x / period_s);
      auto idx = static_cast<size_t>((x - *whole * period_s) / interval);
      return idx >= n ? n - 1 : idx;  // fp guard at the period boundary
    };
    double whole;
    const size_t idx = key_at(t, &whole);
    cum_seg_.period_start = whole * period_s;
    cum_seg_.interval_start = static_cast<double>(idx) * interval;
    cum_seg_.base_bits = whole * period_bits + prefix[idx];
    cum_seg_.bps = trace_->samples_kbps()[idx] * 1000.0;
    const double estimate =
        idx + 1 < n ? cum_seg_.period_start + static_cast<double>(idx + 1) * interval
                    : (whole + 1.0) * period_s;
    cum_seg_.lo = t;
    cum_seg_.hi = segment_end(t, estimate, [&](double x) {
      double w;
      const size_t i = key_at(x, &w);
      return w == whole && i == idx;
    });
  }
  double span = (t - cum_seg_.period_start) - cum_seg_.interval_start;
  if (span > interval) span = interval;
  return cum_seg_.base_bits + cum_seg_.bps * span;
}

void SharedLink::drain_to(double t) {
  // now_s_ first: the memo usually still holds the segment of the previous
  // drain, which ended at now_s_.
  const double before = cumulative_bits(now_s_);
  drained_bits_ += (cumulative_bits(t) - before) / static_cast<double>(credits_.size());
}

size_t SharedLink::begin(double bytes, double start_s) {
  if (!(bytes > 0.0) || !std::isfinite(bytes * 8.0)) {
    throw std::runtime_error("shared link: transfer must carry a finite, positive byte count");
  }
  // Joins happen at the link's current instant: the driver advances the link
  // to each event time before letting sessions act at it.
  if (std::abs(start_s - now_s_) > 1e-9 * std::max(1.0, std::abs(now_s_))) {
    throw std::runtime_error("shared link: transfer must join at the link's current instant");
  }
  Transfer transfer;
  transfer.total_bits = bytes * 8.0;
  transfer.joined_drained_bits = drained_bits_;
  size_t id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    transfers_[id] = transfer;
  } else {
    id = transfers_.size();
    transfers_.push_back(transfer);
    // With recycling, clear_completions pushes onto free_ids_ long after the
    // growth phase; give it its worst-case capacity (every id free) now so
    // the release path never allocates in steady state.
    if (recycle_ids_) free_ids_.reserve(transfers_.size());
  }
  credits_.update(id, transfer.total_bits + drained_bits_);
  next_completion_valid_ = false;
  return id;
}

double SharedLink::next_completion_s() const {
  if (next_completion_valid_) return next_completion_memo_;
  double next = kInf;
  if (!credits_.empty()) {
    double min_remaining = credits_.min_time() - drained_bits_;
    if (min_remaining <= kFinishEpsBits) {
      next = now_s_;
    } else {
      // Equal split: everyone drains at capacity / n, so the next finisher
      // needs the link to deliver its remaining bits times the active count.
      double bits_needed = min_remaining * static_cast<double>(credits_.size());
      TransferResult r = cursor_.advance(bits_needed / 8.0, now_s_);
      if (r.completed) next = now_s_ + r.elapsed_s;
    }
  }
  next_completion_memo_ = next;
  next_completion_valid_ = true;
  return next;
}

void SharedLink::advance_to(double t) {
  // Engine event times are start + accumulated per-chunk deltas, so they can
  // land an ulp before the link's absolutely-indexed clock. Tolerate the
  // same relative drift begin() accepts; a real backwards step still throws.
  if (t < now_s_) {
    if (now_s_ - t > 1e-9 * std::max(1.0, std::abs(now_s_))) {
      throw std::runtime_error("shared link: time may not run backwards");
    }
    t = now_s_;
  }
  // Overshoot: when t lands beyond the next completion instant, realize the
  // completions one at a time at their exact times — each leaver frees its
  // share for the remainder of the advance, and its finish_s is the true
  // instant, not t. Drivers that advance to next_completion_s() exactly
  // never take this branch (finish_s == t), so their single-delta
  // arithmetic — and with it every pinned result — is bit-identical.
  while (t > now_s_ && !credits_.empty()) {
    double finish_s = next_completion_s();
    if (!(finish_s < t)) break;
    if (finish_s > now_s_) {
      drain_to(finish_s);
      now_s_ = finish_s;
      next_completion_valid_ = false;
    }
    // When the drain landed an epsilon short of the prediction, the
    // remaining bits are sub-bit: complete the predicted finisher rather
    // than re-deriving the same instant forever.
    if (!finish_due()) finish_min();
  }
  if (t > now_s_) {
    if (!credits_.empty()) drain_to(t);
    now_s_ = t;
    next_completion_valid_ = false;
  }
  finish_due();
}

void SharedLink::abort(size_t id) {
  if (id >= transfers_.size()) throw std::runtime_error("shared link: unknown transfer id");
  Transfer& transfer = transfers_[id];
  if (transfer.finished || transfer.aborted) {
    throw std::runtime_error("shared link: cannot abort a transfer that is not active");
  }
  credits_.update(id, kInf);
  next_completion_valid_ = false;
  transfer.aborted = true;
  transfer.aborted_granted_bits = std::min(
      transfer.total_bits, std::max(0.0, drained_bits_ - transfer.joined_drained_bits));
  transfer.finish_s = now_s_;
  // The id never reaches completions_, so release it here when recycling.
  if (recycle_ids_) free_ids_.push_back(id);
}

const std::vector<SharedLink::Completion>& SharedLink::completions_sorted() {
  std::sort(completions_.begin(), completions_.end(),
            [](const Completion& a, const Completion& b) { return a.id < b.id; });
  return completions_;
}

void SharedLink::clear_completions() {
  if (recycle_ids_) {
    for (const Completion& c : completions_) free_ids_.push_back(c.id);
  }
  completions_.clear();
}

std::vector<SharedLink::Completion> SharedLink::take_completions() {
  std::vector<Completion> out = completions_sorted();
  clear_completions();
  return out;
}

SharedLink::TransferView SharedLink::view(size_t id) const {
  if (id >= transfers_.size()) throw std::runtime_error("shared link: unknown transfer id");
  const Transfer& transfer = transfers_[id];
  TransferView view;
  view.total_bits = transfer.total_bits;
  view.finished = transfer.finished;
  view.aborted = transfer.aborted;
  view.finish_s = transfer.finish_s;
  if (transfer.finished) {
    view.granted_bits = transfer.total_bits;
  } else if (transfer.aborted) {
    view.granted_bits = transfer.aborted_granted_bits;
  } else {
    view.granted_bits = std::min(transfer.total_bits,
                                 std::max(0.0, drained_bits_ - transfer.joined_drained_bits));
  }
  return view;
}

}  // namespace sensei::net
