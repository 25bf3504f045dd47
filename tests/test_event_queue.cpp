// Differential gate for util::IndexedMinHeap, the one heap in src/: the
// discrete-event loop schedules engine transitions on it (as
// sim::EventQueue) and net::SharedLink keeps its finish credits in it. A
// seeded operation stream — inserts, moves up and down, +infinity removals,
// re-insertion of removed indices, equal-key ties, index-space growth, and
// the link's pattern of pop-min runs interleaved with removals of arbitrary
// indices — runs against the heap and against a std::set of (key, index)
// pairs, the order the heap promises. After every operation the heap's
// minimum, size and emptiness must equal the reference's. The suite keeps
// the event loop's name for the heap.
#include "util/indexed_min_heap.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace sensei::util {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

class ReferenceQueue {
 public:
  void update(size_t idx, double time) {
    if (idx >= times_.size()) times_.resize(idx + 1, kInf);
    if (times_[idx] != kInf) set_.erase({times_[idx], idx});
    times_[idx] = time;
    if (time != kInf) set_.insert({time, idx});
  }
  double time_of(size_t idx) const { return idx < times_.size() ? times_[idx] : kInf; }
  bool empty() const { return set_.empty(); }
  size_t size() const { return set_.size(); }
  const std::pair<double, size_t>& min() const { return *set_.begin(); }
  size_t nth_index(size_t k) const { return std::next(set_.begin(), k)->second; }

 private:
  std::set<std::pair<double, size_t>> set_;
  std::vector<double> times_;
};

void expect_same(const IndexedMinHeap& queue, const ReferenceQueue& ref, size_t op) {
  ASSERT_EQ(queue.empty(), ref.empty()) << "op " << op;
  ASSERT_EQ(queue.size(), ref.size()) << "op " << op;
  if (ref.empty()) {
    ASSERT_EQ(queue.min_time(), kInf) << "op " << op;
    return;
  }
  ASSERT_EQ(queue.min_time(), ref.min().first) << "op " << op;
  ASSERT_EQ(queue.min_index(), ref.min().second) << "op " << op;
}

TEST(EventQueue, EmptyQueueReportsInfinity) {
  IndexedMinHeap queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.min_time(), kInf);
  queue.update(1, 2.0);
  queue.update(3, kInf);  // removing an absent index is a no-op
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.min_index(), 1u);
  queue.update(1, kInf);
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.min_time(), kInf);
}

TEST(EventQueue, EqualTimesSurfaceInIndexOrder) {
  IndexedMinHeap queue;
  for (size_t idx : {7u, 2u, 9u, 0u, 4u}) queue.update(idx, 5.0);
  std::vector<size_t> order;
  while (!queue.empty()) {
    order.push_back(queue.min_index());
    queue.update(queue.min_index(), kInf);
  }
  EXPECT_EQ(order, (std::vector<size_t>{0, 2, 4, 7, 9}));
}

// The seeded stream draws times from a small grid half the time, so ties at
// one instant are common, and from a continuous range otherwise. Indices
// come from a space that grows in steps, exercising ensure_size both
// explicitly and through update().
TEST(EventQueue, MatchesOrderedSetReferenceOverSeededOperations) {
  for (uint64_t seed : {1ull, 0x5eedull, 0xe7e47ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    IndexedMinHeap queue;
    ReferenceQueue ref;
    size_t space = 8;
    queue.ensure_size(space);
    size_t removals = 0, reinserts = 0, moves_up = 0, moves_down = 0, ties = 0;
    size_t min_pops = 0, arbitrary_removals = 0;
    std::vector<bool> removed(1 << 12, false);
    for (size_t op = 0; op < 40000; ++op) {
      if (space < removed.size() && rng.chance(0.002)) {
        space = std::min(removed.size(), space * 2);
        if (rng.chance(0.5)) queue.ensure_size(space);
      }
      const size_t idx = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(space) - 1));
      const double old = ref.time_of(idx);
      double time;
      const double pick = rng.uniform();
      if (pick < 0.15) {
        time = kInf;
      } else if (pick < 0.25 && !ref.empty()) {
        time = ref.min().first;  // tie with the current minimum
      } else if (pick < 0.6) {
        time = static_cast<double>(rng.uniform_int(0, 64)) * 0.25;
      } else {
        time = rng.uniform(0.0, 16.0);
      }
      if (time == kInf) {
        if (old != kInf) {
          ++removals;
          removed[idx] = true;
        }
      } else if (old == kInf) {
        if (removed[idx]) ++reinserts;
      } else if (time < old) {
        ++moves_up;
      } else if (old < time) {
        ++moves_down;
      }
      if (time != kInf && !ref.empty() && time == ref.min().first) ++ties;
      queue.update(idx, time);
      ref.update(idx, time);
      expect_same(queue, ref, op);
      if (HasFatalFailure()) return;

      // Drain a few minima the way the event loops do: pop by moving the
      // minimum to a later time or removing it.
      if (rng.chance(0.1)) {
        for (int k = 0; k < 3 && !ref.empty(); ++k) {
          const size_t min_idx = queue.min_index();
          const double later = rng.chance(0.3) ? kInf : queue.min_time() + rng.uniform(0.0, 2.0);
          queue.update(min_idx, later);
          ref.update(min_idx, later);
          expect_same(queue, ref, op);
          if (HasFatalFailure()) return;
        }
      }

      // SharedLink's credit pattern: a run of finishers retired off the
      // minimum, then an abort that removes any present index.
      if (rng.chance(0.05)) {
        const int run = rng.uniform_int(1, 6);
        for (int k = 0; k < run && !ref.empty(); ++k) {
          const size_t min_idx = queue.min_index();
          queue.update(min_idx, kInf);
          ref.update(min_idx, kInf);
          ++min_pops;
          expect_same(queue, ref, op);
          if (HasFatalFailure()) return;
        }
        if (!ref.empty()) {
          const size_t victim = ref.nth_index(static_cast<size_t>(
              rng.uniform_int(0, static_cast<int>(ref.size()) - 1)));
          queue.update(victim, kInf);
          ref.update(victim, kInf);
          ++arbitrary_removals;
          expect_same(queue, ref, op);
          if (HasFatalFailure()) return;
        }
      }
    }
    // Every operation kind the queue branches on actually ran.
    EXPECT_GT(removals, 1000u);
    EXPECT_GT(reinserts, 1000u);
    EXPECT_GT(moves_up, 1000u);
    EXPECT_GT(moves_down, 1000u);
    EXPECT_GT(ties, 1000u);
    EXPECT_GE(space, 1024u);
    EXPECT_GT(min_pops, 4000u);
    EXPECT_GT(arbitrary_removals, 1000u);
  }
}

}  // namespace
}  // namespace sensei::util
