// Indexed binary min-heap, the one heap in src/: the discrete-event loop
// (sim/cell_loop.h) keys each session slot by its next event time, and
// net::SharedLink keys each active transfer id by its finish credit.
//
// An index's slot moves in place (hole-based sift up/down) when its key
// changes: no stale entries, no allocation once the heap and the index
// space reach their peak, and O(log n) to insert, re-key or remove any
// index. Entries are stored flat as (key, index), so a sift compares keys
// in the heap's own cache lines.
//
// Determinism contract (what the bit-identity gates rely on): the minimum
// is totally ordered by (key, index) — among equal keys the lowest index
// surfaces first. +infinity means "absent" and removes the index.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace sensei::util {

class IndexedMinHeap {
 public:
  // Grows the index space to at least `n` indices, all absent. Never
  // shrinks: fleet cells and recycling links reuse indices, so there the
  // space is bounded by peak concurrency.
  void ensure_size(size_t n) {
    if (pos_.size() < n) pos_.resize(n, kNone);
  }

  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  // Key and index of the minimum (the key accessor keeps the event loop's
  // name); min_time() is +infinity when the heap is empty (min_index() is
  // then unspecified).
  double min_time() const { return heap_.empty() ? kAbsent : heap_[0].key; }
  size_t min_index() const { return heap_[0].index; }

  // Sets index `idx`'s key, inserting, moving, or (+infinity) removing its
  // slot as needed.
  void update(size_t idx, double key) {
    ensure_size(idx + 1);
    const size_t at = pos_[idx];
    if (key == kAbsent) {
      if (at != kNone) remove(at);
      return;
    }
    const Entry entry{key, idx};
    if (at == kNone) {
      heap_.emplace_back();
      sift_up(heap_.size() - 1, entry);
      return;
    }
    const double old = heap_[at].key;
    if (key < old) {
      sift_up(at, entry);
    } else if (old < key) {
      sift_down(at, entry);
    }
  }

 private:
  static constexpr double kAbsent = std::numeric_limits<double>::infinity();
  static constexpr size_t kNone = static_cast<size_t>(-1);

  struct Entry {
    double key;
    size_t index;
  };

  // (key, index) lexicographic order — the deterministic tie-break. Both
  // comparisons are evaluated and combined without branches: which child a
  // sift follows is data-dependent, so a branch here mispredicts often.
  static bool before(const Entry& a, const Entry& b) {
    return (a.key < b.key) | ((a.key == b.key) & (a.index < b.index));
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

  std::vector<Entry> heap_;  // (key, index), heap-ordered by before()
  std::vector<size_t> pos_;  // index -> heap position (kNone: absent)
};

}  // namespace sensei::util
