// Differential gate for SharedLink's credit bookkeeping. The link keeps each
// active transfer's finish credit in an indexed min-heap keyed by transfer
// id (util/indexed_min_heap.h); the reference below keeps the same credits
// in a std::set of (finish credit, id) pairs, the order the link promises,
// and otherwise restates SharedLink's drain and completion rules
// line for line. Seeded begin / abort / advance_to streams, with id
// recycling on and off, must give the same completions, finish instants,
// grants and next completion instant, bit for bit.
//
// Time lookups are not under test here (tests/test_segment_memo.cpp checks
// them against the pre-memo formulas), so the reference reads capacity
// through an idle link's cumulative_bits and integrates through
// ThroughputTrace::advance, which the link's cursor matches bit for bit.
#include "net/shared_link.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "net/trace.h"
#include "util/rng.h"

namespace sensei::net {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kFinishEpsBits = 1.0;  // SharedLink's completion slack

class ReferenceLink {
 public:
  ReferenceLink(const ThroughputTrace& trace, bool recycle_ids)
      : trace_(trace), capacity_(trace), recycle_ids_(recycle_ids) {}

  double now_s() const { return now_s_; }
  size_t active_count() const { return credits_.size(); }
  bool active(size_t id) const {
    return id < transfers_.size() && !transfers_[id].finished && !transfers_[id].aborted;
  }
  const std::set<std::pair<double, size_t>>& credits() const { return credits_; }
  size_t id_space() const { return transfers_.size(); }

  // Books a transfer under the id the link handed out; returns false when
  // that id was not free to hand out.
  bool begin(double bytes, size_t id) {
    const bool fresh = id == transfers_.size();
    if (!fresh && (!recycle_ids_ || id > transfers_.size() || active(id) ||
                   pending_.count(id) != 0)) {
      return false;
    }
    if (fresh) transfers_.emplace_back();
    Transfer& transfer = transfers_[id];
    transfer = Transfer{};
    transfer.total_bits = bytes * 8.0;
    transfer.joined_drained_bits = drained_bits_;
    transfer.credit = transfer.total_bits + drained_bits_;
    credits_.insert({transfer.credit, id});
    return true;
  }

  double next_completion_s() const {
    if (credits_.empty()) return kInf;
    const double min_remaining = credits_.begin()->first - drained_bits_;
    if (min_remaining <= kFinishEpsBits) return now_s_;
    const double bits_needed = min_remaining * static_cast<double>(credits_.size());
    const TransferResult r = trace_.advance(bits_needed / 8.0, now_s_);
    return r.completed ? now_s_ + r.elapsed_s : kInf;
  }

  void advance_to(double t) {
    while (t > now_s_ && !credits_.empty()) {
      const double finish_s = next_completion_s();
      if (!(finish_s < t)) break;
      if (finish_s > now_s_) {
        drain_to(finish_s);
        now_s_ = finish_s;
      }
      bool popped = false;
      while (!credits_.empty() && credits_.begin()->first - drained_bits_ <= kFinishEpsBits) {
        finish_min();
        popped = true;
      }
      if (!popped) finish_min();
    }
    if (t > now_s_) {
      if (!credits_.empty()) drain_to(t);
      now_s_ = t;
    }
    while (!credits_.empty() && credits_.begin()->first - drained_bits_ <= kFinishEpsBits) {
      finish_min();
    }
  }

  void abort(size_t id) {
    Transfer& transfer = transfers_[id];
    credits_.erase({transfer.credit, id});
    transfer.aborted = true;
    transfer.aborted_granted_bits = std::min(
        transfer.total_bits, std::max(0.0, drained_bits_ - transfer.joined_drained_bits));
    transfer.finish_s = now_s_;
  }

  // Completions since the last call, in id order; their ids become free.
  std::vector<SharedLink::Completion> drain_completions() {
    std::vector<SharedLink::Completion> out;
    for (size_t id : pending_) out.push_back({id, transfers_[id].finish_s});
    pending_.clear();
    return out;
  }

  SharedLink::TransferView view(size_t id) const {
    const Transfer& transfer = transfers_[id];
    SharedLink::TransferView view;
    view.total_bits = transfer.total_bits;
    view.finished = transfer.finished;
    view.aborted = transfer.aborted;
    view.finish_s = transfer.finish_s;
    if (transfer.finished) {
      view.granted_bits = transfer.total_bits;
    } else if (transfer.aborted) {
      view.granted_bits = transfer.aborted_granted_bits;
    } else {
      view.granted_bits = std::min(
          transfer.total_bits, std::max(0.0, drained_bits_ - transfer.joined_drained_bits));
    }
    return view;
  }

 private:
  struct Transfer {
    double total_bits = 0.0;
    double joined_drained_bits = 0.0;
    double credit = 0.0;
    bool finished = false;
    bool aborted = false;
    double aborted_granted_bits = 0.0;
    double finish_s = 0.0;
  };

  void drain_to(double t) {
    drained_bits_ += (capacity_.cumulative_bits(t) - capacity_.cumulative_bits(now_s_)) /
                     static_cast<double>(credits_.size());
  }

  void finish_min() {
    const size_t id = credits_.begin()->second;
    credits_.erase(credits_.begin());
    transfers_[id].finished = true;
    transfers_[id].finish_s = now_s_;
    pending_.insert(id);
  }

  const ThroughputTrace& trace_;
  const SharedLink capacity_;  // idle: only its cumulative_bits is read
  bool recycle_ids_;
  double now_s_ = 0.0;
  double drained_bits_ = 0.0;
  std::set<std::pair<double, size_t>> credits_;
  std::vector<Transfer> transfers_;
  std::set<size_t> pending_;  // finished, not yet drained
};

// A looping trace with varied capacity and one dead interval per period.
ThroughputTrace credit_trace(uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> kbps;
  for (int i = 0; i < 37; ++i) kbps.push_back(rng.uniform(300.0, 9000.0));
  kbps[11] = 0.0;
  return ThroughputTrace("credits", kbps, 0.5);
}

std::string describe(const SharedLink::TransferView& v) {
  return "total " + std::to_string(v.total_bits) + " granted " + std::to_string(v.granted_bits) +
         (v.finished ? " finished" : "") + (v.aborted ? " aborted" : "") + " at " +
         std::to_string(v.finish_s);
}

void expect_same_view(const SharedLink& link, const ReferenceLink& ref, size_t id,
                      size_t op) {
  const SharedLink::TransferView a = link.view(id);
  const SharedLink::TransferView b = ref.view(id);
  ASSERT_TRUE(a.total_bits == b.total_bits && a.granted_bits == b.granted_bits &&
              a.finished == b.finished && a.aborted == b.aborted && a.finish_s == b.finish_s)
      << "op " << op << " id " << id << ": link " << describe(a) << ", reference "
      << describe(b);
}

void expect_same_link(const SharedLink& link, const ReferenceLink& ref, size_t op) {
  ASSERT_EQ(link.now_s(), ref.now_s()) << "op " << op;
  ASSERT_EQ(link.active_count(), ref.active_count()) << "op " << op;
  ASSERT_EQ(link.next_completion_s(), ref.next_completion_s()) << "op " << op;
  for (const auto& [credit, id] : ref.credits()) {
    expect_same_view(link, ref, id, op);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

struct StreamCounts {
  size_t completions = 0;
  size_t tied_completions = 0;  // finished at the same instant as another
  size_t aborts = 0;
  size_t min_aborts = 0;        // aborted the next finisher
  size_t reused_aborted_ids = 0;
  size_t overshoots = 0;        // advanced past the next completion
};

// Drives one seeded stream through the link and the reference.
StreamCounts run_stream(uint64_t seed, bool recycle_ids) {
  StreamCounts counts;
  const ThroughputTrace trace = credit_trace(seed);
  SharedLink link(trace, recycle_ids);
  ReferenceLink ref(trace, recycle_ids);
  util::Rng rng(seed ^ 0xc4ed175ull);
  std::vector<size_t> active;  // ids active on both sides, in no order
  std::set<size_t> aborted_free;
  const auto forget = [&](size_t id) {
    active.erase(std::find(active.begin(), active.end(), id));
  };

  for (size_t op = 0; op < 6000; ++op) {
    const double pick = rng.uniform();
    if (pick < 0.35 || active.empty()) {
      // A join burst at the current instant; a third of them share one
      // byte count, so their credits tie exactly and break by id.
      const size_t burst = static_cast<size_t>(rng.uniform_int(1, 4));
      const bool equal = rng.chance(0.35);
      const double shared_bytes = 25000.0 * static_cast<double>(rng.uniform_int(1, 8));
      for (size_t k = 0; k < burst; ++k) {
        const double bytes = equal ? shared_bytes : rng.uniform(2000.0, 400000.0);
        const size_t id = link.begin(bytes, link.now_s());
        EXPECT_TRUE(ref.begin(bytes, id)) << "op " << op << ": link handed out busy id " << id;
        if (aborted_free.erase(id) != 0) ++counts.reused_aborted_ids;
        active.push_back(id);
      }
    } else if (pick < 0.5) {
      // Abort: the next finisher a third of the time, else any transfer.
      size_t id = active[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int>(active.size()) - 1))];
      if (rng.chance(0.35)) {
        id = ref.credits().begin()->second;
        ++counts.min_aborts;
      }
      link.abort(id);
      ref.abort(id);
      forget(id);
      if (recycle_ids) aborted_free.insert(id);
      ++counts.aborts;
    } else {
      // Advance: exactly to the next completion (what the cell loop does),
      // part of the way there, or past it (the overshoot path).
      const double next = link.next_completion_s();
      const double horizon = next < kInf ? next : link.now_s() + 3.0;
      const double mode = rng.uniform();
      double t;
      if (mode < 0.5) {
        t = horizon;
      } else if (mode < 0.8) {
        t = link.now_s() + (horizon - link.now_s()) * rng.uniform();
      } else {
        t = horizon + rng.uniform(0.0, 1.5);
        if (next < t) ++counts.overshoots;
      }
      link.advance_to(t);
      ref.advance_to(t);
      const std::vector<SharedLink::Completion> got = link.completions_sorted();
      const std::vector<SharedLink::Completion> want = ref.drain_completions();
      EXPECT_EQ(got.size(), want.size()) << "op " << op;
      for (size_t k = 0; k < std::min(got.size(), want.size()); ++k) {
        EXPECT_EQ(got[k].id, want[k].id) << "op " << op << " completion " << k;
        EXPECT_EQ(got[k].finish_s, want[k].finish_s) << "op " << op << " completion " << k;
      }
      for (size_t k = 0; k < got.size(); ++k) {
        expect_same_view(link, ref, got[k].id, op);
        if (std::any_of(got.begin(), got.end(), [&](const SharedLink::Completion& c) {
              return c.id != got[k].id && c.finish_s == got[k].finish_s;
            })) {
          ++counts.tied_completions;
        }
        forget(got[k].id);
      }
      counts.completions += got.size();
      link.clear_completions();
    }
    expect_same_link(link, ref, op);
    if (::testing::Test::HasFailure()) return counts;
  }
  // Every record the reference ever booked, finished and aborted ones too
  // (their current occupant, with recycling).
  for (size_t id = 0; id < ref.id_space(); ++id) expect_same_view(link, ref, id, 6000);
  return counts;
}

TEST(SharedLinkCredits, MatchesOrderedSetReferenceWithoutRecycling) {
  for (uint64_t seed : {3ull, 0x11ceull, 0xbeefull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const StreamCounts counts = run_stream(seed, /*recycle_ids=*/false);
    if (HasFailure()) return;
    EXPECT_GT(counts.completions, 1000u);
    EXPECT_GT(counts.tied_completions, 100u);
    EXPECT_GT(counts.aborts, 300u);
    EXPECT_GT(counts.min_aborts, 100u);
    EXPECT_GT(counts.overshoots, 100u);
  }
}

TEST(SharedLinkCredits, MatchesOrderedSetReferenceWithRecycledIds) {
  for (uint64_t seed : {3ull, 0x11ceull, 0xbeefull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const StreamCounts counts = run_stream(seed, /*recycle_ids=*/true);
    if (HasFailure()) return;
    EXPECT_GT(counts.completions, 1000u);
    EXPECT_GT(counts.tied_completions, 100u);
    EXPECT_GT(counts.min_aborts, 100u);
    EXPECT_GT(counts.reused_aborted_ids, 100u);
  }
}

// Two transfers of equal bytes joined at one instant hold equal credits;
// aborting the lower id — the heap's minimum — leaves the other as the next
// finisher with the whole link, and with recycling the aborted id is the
// next one handed out.
TEST(SharedLinkCredits, AbortingTheMinimumOfATieHandsTheLinkOn) {
  const ThroughputTrace trace("flat", {8000.0}, 1.0);  // 8 Mbps, loops
  SharedLink link(trace, /*recycle_ids=*/true);
  const size_t a = link.begin(125000.0, 0.0);  // 1 Mbit each
  const size_t b = link.begin(125000.0, 0.0);
  ASSERT_LT(a, b);
  EXPECT_EQ(link.next_completion_s(), 0.25);
  link.abort(a);
  EXPECT_EQ(link.active_count(), 1u);
  EXPECT_EQ(link.next_completion_s(), 0.125);
  const size_t c = link.begin(125000.0, 0.0);
  EXPECT_EQ(c, a);
  EXPECT_FALSE(link.view(c).aborted);
  link.advance_to(link.next_completion_s());
  const std::vector<SharedLink::Completion> done = link.take_completions();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0].id, a);
  EXPECT_EQ(done[1].id, b);
  EXPECT_EQ(done[0].finish_s, 0.25);
  EXPECT_EQ(done[1].finish_s, 0.25);
  EXPECT_EQ(link.active_count(), 0u);
}

}  // namespace
}  // namespace sensei::net
