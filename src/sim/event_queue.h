// Indexed min-heap of per-session event times for the discrete-event loop
// (sim/cell_loop.h).
//
// Each session holds exactly one slot, keyed by its current
// next_event_time(), moved in place (sift up/down) when the time changes.
// No stale entries, no allocation after the index space is sized, O(log n)
// per update. The heap stores its (time, index) entries flat, so a sift
// compares keys in the heap's own cache lines instead of chasing indices
// into a separate time array, and moves each displaced entry once into a
// travelling hole rather than swapping pairs.
//
// Determinism contract (what the bit-identity gates rely on): the minimum
// is totally ordered by (time, index) — among sessions scheduled at the
// same instant the lowest index surfaces first. +infinity means "no event"
// and removes the session from the heap.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace sensei::sim {

class EventQueue {
 public:
  EventQueue() = default;

  // Grows the index space to at least `n` sessions (absent from the heap
  // until their first finite update). Never shrinks: fleet cells recycle
  // session slots, so the space is bounded by peak concurrency.
  void ensure_size(size_t n) {
    if (pos_.size() < n) pos_.resize(n, kNone);
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Time and index of the earliest event; min_time() is +infinity when the
  // heap is empty (min_index() is then unspecified).
  double min_time() const { return heap_.empty() ? kInfTime : heap_[0].time; }
  size_t min_index() const { return heap_[0].index; }

  // Sets session `idx`'s next event time, inserting, moving, or (+infinity)
  // removing its slot as needed.
  void update(size_t idx, double time) {
    ensure_size(idx + 1);
    const size_t at = pos_[idx];
    if (time == kInfTime) {
      if (at != kNone) remove(at);
      return;
    }
    const Entry entry{time, idx};
    if (at == kNone) {
      heap_.emplace_back();
      sift_up(heap_.size() - 1, entry);
      return;
    }
    const double old = heap_[at].time;
    if (time < old) {
      sift_up(at, entry);
    } else if (old < time) {
      sift_down(at, entry);
    }
  }

 private:
  static constexpr double kInfTime = std::numeric_limits<double>::infinity();
  static constexpr size_t kNone = static_cast<size_t>(-1);

  struct Entry {
    double time;
    size_t index;
  };

  // (time, index) lexicographic order — the deterministic tie-break. Both
  // comparisons are evaluated and combined without branches: which child a
  // sift follows is data-dependent, so a branch here mispredicts often.
  static bool before(const Entry& a, const Entry& b) {
    return (a.time < b.time) | ((a.time == b.time) & (a.index < b.index));
  }

  // Removes the entry at heap position `hole`: the tail entry refills the
  // hole from whichever side restores the order.
  void remove(size_t hole) {
    pos_[heap_[hole].index] = kNone;
    const Entry last = heap_.back();
    heap_.pop_back();
    if (hole == heap_.size()) return;  // removed the tail slot itself
    if (hole > 0 && before(last, heap_[(hole - 1) / 2])) {
      sift_up(hole, last);
    } else {
      sift_down(hole, last);
    }
  }

  // Hole-based sifts: `entry` belongs at or above (below) position `hole`;
  // entries it precedes (follows) move one level down (up) into the hole,
  // and `entry` is written once where the hole stops.
  void sift_up(size_t hole, const Entry& entry) {
    while (hole > 0) {
      const size_t parent = (hole - 1) / 2;
      if (!before(entry, heap_[parent])) break;
      place(hole, heap_[parent]);
      hole = parent;
    }
    place(hole, entry);
  }

  void sift_down(size_t hole, const Entry& entry) {
    const size_t n = heap_.size();
    while (true) {
      size_t child = 2 * hole + 1;
      if (child >= n) break;
      if (child + 1 < n) child += before(heap_[child + 1], heap_[child]);
      if (!before(heap_[child], entry)) break;
      place(hole, heap_[child]);
      hole = child;
    }
    place(hole, entry);
  }

  void place(size_t at, const Entry& entry) {
    heap_[at] = entry;
    pos_[entry.index] = at;
  }

  std::vector<Entry> heap_;  // (time, session index), heap-ordered by before()
  std::vector<size_t> pos_;  // session index -> heap position (kNone: absent)
};

}  // namespace sensei::sim
