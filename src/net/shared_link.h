// Shared bottleneck link: one trace's capacity split across concurrent
// transfers.
//
// Model: at any instant the link's capacity (the trace step function) is
// divided *equally* among the active transfers — the fluid limit of
// per-connection fair queueing on a common bottleneck, the standard
// contention model in multi-client ABR studies. Consequences the tests pin
// down (tests/test_simulator.cpp):
//
//  * conservation — over any span the bits granted across all transfers sum
//    to exactly the trace capacity of that span (no transfer ever rides
//    capacity the trace did not deliver, none is wasted while anyone is
//    active);
//  * fairness — symmetric transfers progress identically and finish
//    together;
//  * work conservation — when all but one transfer leave, the survivor gets
//    the full link from that instant on.
//
// Mechanically the link rides the same cumulative-capacity prefix sums as
// ThroughputTrace::advance (net::TraceIndex): equal split means every active
// transfer drains at the same bits/s, so the relative order of their
// remaining bits never changes between membership events. Each transfer is
// therefore booked once, at join time, as a *finish credit* (bits remaining
// + bits already drained per transfer). The credits live in an indexed
// min-heap keyed by transfer id (util/indexed_min_heap.h), ordered by
// (finish credit, id); with one global drained-bits accumulator it answers
// "who finishes next" and "how much has everyone received". Joining,
// finishing and aborting a transfer each re-key one id in O(log n), with no
// per-transfer update on the hot path and no allocation once the backing
// vectors reach the link's peak concurrency.
//
// Both time lookups on the event path — cumulative_bits(t) for every drain
// and the trace integration behind next_completion_s() — run through exact
// segment memos (net/segment_memo.h): the link remembers the key its last
// lookup resolved (whole period and interval for cumulative_bits, the start
// interval for the integration, held in the link's own TraceCursor) and the
// exact range of instants that resolve to it, so the steady state replaces
// a division, a floor and a modulo per event with two multiply-subtracts.
// The memo keeps the reference association, so every value is the
// reference value bit for bit; the shared trace is never written.
//
// The link is a passive integrator: a driver (sim/cell_loop.h) advances it
// through time with advance_to(), never past next_completion_s(), and joins
// transfers only at the link's current instant — which is exactly how the
// event loop produces its times, so the contract costs the driver nothing.
#pragma once

#include <cstddef>
#include <vector>

#include "net/trace.h"
#include "util/indexed_min_heap.h"

namespace sensei::net {

class SharedLink {
 public:
  // `trace` must outlive the link. Time 0 of the link is time 0 of the trace.
  // With `recycle_ids` the link reuses the ids of transfers whose completion
  // has been drained (take_completions / clear_completions), so per-transfer
  // bookkeeping is bounded by peak concurrency instead of total transfer
  // count — the fleet-scale memory model. view(id) then describes the id's
  // *current* occupant, so diagnostics that read finished transfers after
  // the fact should leave recycling off (the default).
  explicit SharedLink(const ThroughputTrace& trace, bool recycle_ids = false);

  const ThroughputTrace& trace() const { return *trace_; }
  double now_s() const { return now_s_; }
  size_t active_count() const { return credits_.size(); }

  // Registers a transfer of `bytes` (finite, > 0) starting at `start_s`,
  // which must be the link's current instant (the driver advances the link
  // to an event time, then lets sessions join at it). Returns the
  // transfer's id. Throws for a non-finite or non-positive byte count: an
  // infinite transfer would never finish, and the link would look dead.
  size_t begin(double bytes, double start_s);

  // Earliest absolute time at which an active transfer completes if the
  // active set stays fixed; +infinity when there is no active transfer or
  // the link can never deliver the remaining bits (dead link — all-zero
  // looping trace or exhausted finite trace). The answer is memoized until
  // the link changes, so even this const call must not race another call
  // on the same link.
  double next_completion_s() const;

  // Drains shared capacity up to absolute time `t` (>= now, and not past
  // next_completion_s() + the completion instant itself): every active
  // transfer receives an equal share of the trace capacity over [now, t].
  // Transfers whose remaining bits reach zero at `t` complete and leave the
  // link.
  void advance_to(double t);

  // Removes an *active* transfer from the link at its current instant — the
  // resilience path for a timed-out request or a cell failover, where the
  // session walks away mid-download. The bits granted so far are frozen in
  // the transfer's view (marked aborted); the remaining active transfers
  // split the full capacity from this instant on, exactly as if the transfer
  // had completed. Throws for an unknown id or one that is not active
  // (already finished or aborted) — drivers deliver completions before
  // session events at the same instant, so a session can never race its own
  // completion here. Removing the credit is one O(log n) heap update, the
  // same cost as a completion.
  void abort(size_t id);

  // Completions recorded since the last drain, in join (id) order.
  struct Completion {
    size_t id = 0;
    double finish_s = 0.0;
  };
  // Allocation-free drain pair for event-loop drivers: the returned view is
  // valid until the next advance_to/begin/clear_completions, and the clear
  // keeps the buffer's capacity (and, with recycle_ids, frees the drained
  // ids for reuse).
  const std::vector<Completion>& completions_sorted();
  void clear_completions();
  // Convenience drain returning an owned copy (clears, as above).
  std::vector<Completion> take_completions();

  // Per-transfer accounting for tests and diagnostics.
  struct TransferView {
    double total_bits = 0.0;
    double granted_bits = 0.0;  // delivered so far (== total once finished)
    bool finished = false;
    bool aborted = false;
    double finish_s = 0.0;  // valid when finished or aborted (abort instant)
  };
  TransferView view(size_t id) const;

  // Trace capacity (bits) deliverable over [0, t): the link-wide budget the
  // conservation tests compare grants against. Looping traces accumulate
  // period capacity forever; finite traces cap at their duration. Served
  // from the segment memo, so like next_completion_s() it must not race
  // another call on the same link.
  double cumulative_bits(double t) const;

 private:
  struct Transfer {
    double total_bits = 0.0;
    double joined_drained_bits = 0.0;  // drained_bits_ at join
    bool finished = false;
    bool aborted = false;
    double aborted_granted_bits = 0.0;  // grants frozen at the abort instant
    double finish_s = 0.0;
  };

  // finish_min() retires the heap's minimum at now_s_; finish_due() retires
  // every transfer within a bit of done and says whether there was one.
  void finish_min();
  bool finish_due();
  // Credits every active transfer its equal share of the trace capacity
  // over [now_s_, t]; the caller then moves now_s_ to t.
  void drain_to(double t);

  const ThroughputTrace* trace_ = nullptr;
  bool recycle_ids_ = false;
  double now_s_ = 0.0;
  // Per-transfer share of capacity drained since the link began (bits).
  double drained_bits_ = 0.0;
  // Remaining bits of an active transfer = credit - drained_bits_. The
  // minimum (credit, id) finishes next; equal credits finish in id order.
  util::IndexedMinHeap credits_;  // transfer id -> finish credit
  std::vector<Transfer> transfers_;  // indexed by id (bounded when recycling)
  std::vector<size_t> free_ids_;     // drained ids awaiting reuse (recycle_ids_)
  std::vector<Completion> completions_;
  // Memo of next_completion_s(), a pure function of the link state. A
  // driver asks for it and then advances to it, which asks again, so it is
  // kept until begin, abort or advance_to changes the state it reads.
  mutable double next_completion_memo_ = 0.0;
  mutable bool next_completion_valid_ = false;
  // cumulative_bits' segment memo: every t in [lo, hi) has the key (whole,
  // idx) the products below were derived from, so the value there is
  // (whole * period_bits + prefix[idx]) + bps * ((t - whole * period_s) -
  // idx * interval), the reference expression in the reference order.
  // Empty (lo == hi) until the first lookup.
  struct CumSegment {
    double lo = 0.0;
    double hi = 0.0;
    double period_start = 0.0;    // whole * period_s
    double interval_start = 0.0;  // idx * interval
    double base_bits = 0.0;       // whole * period_bits + prefix[idx]
    double bps = 0.0;             // samples[idx] * 1000
  };
  mutable CumSegment cum_seg_;
  // next_completion_s()'s integrator: its start-interval memo and finish
  // hint track the link's clock.
  mutable TraceCursor cursor_;
};

}  // namespace sensei::net
