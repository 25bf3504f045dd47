// The discrete-event loop every simulated session runs through.
//
// sim::Simulator and each sim::FleetSimulator cell call run_cell_loop. The
// loop owns the event queue (an indexed min-heap, util/indexed_min_heap.h),
// the transfer-id -> slot map, the live-link pointer, the dead-link outage,
// the failover instant and the livelock sentinel; callers own their session
// slots and pass three hooks (an arrival source, admit, retire) as template
// parameters, so the hooks inline into the per-event path.
//
// Times are exact, not ticks. Each iteration takes the earliest of the
// engines' next transitions, the link's next completion, the next arrival
// and the failover instant, and at that instant t runs, in order:
//   1. completions: the link advances to t and delivers every transfer it
//      finished, in join order;
//   2. admissions: every arrival at t takes a slot (first event at t);
//   3. transitions: every engine with an event at t, lowest slot first;
//   4. failover: every session still live re-homes to the fallback link;
//   5. the livelock sentinel.
// Ties break on slot index, and a leaver frees its share before anyone
// joining at the same instant sees the link, which is what makes "last
// leaver gets the full link" exact at boundaries. A chunk that completes at
// the failover instant is a normal arrival on the primary link
// (tests/test_cell_loop.cpp pins both orderings).
//
// A slot is live iff it holds an engine that is not done(); a retired fleet
// engine stays done until its slot is reused.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/shared_link.h"
#include "sim/session_engine.h"
#include "util/indexed_min_heap.h"

namespace sensei::sim {

// Typed livelock diagnosis: the loop made no progress across two iterations
// pinned at the same simulated instant, which can never resolve. Thrown
// instead of spinning; carries the stuck session's slot index (spec order in
// Simulator; engine slot in a fleet cell) and the simulated time so the
// failure names its culprit.
class LivelockError : public std::runtime_error {
 public:
  LivelockError(const std::string& loop, size_t stuck_session, double sim_time_s)
      : std::runtime_error(loop + ": event loop stalled (no progress at t=" +
                           std::to_string(sim_time_s) + ", stuck session " +
                           std::to_string(stuck_session) + ")"),
        stuck_session_(stuck_session),
        sim_time_s_(sim_time_s) {}
  size_t stuck_session() const { return stuck_session_; }
  double sim_time_s() const { return sim_time_s_; }

 private:
  size_t stuck_session_;
  double sim_time_s_;
};

// A hard failure of the cell's primary link at `at_s` (+infinity: never).
// Live sessions re-home to `fallback` after `reconnect_delay_s`.
struct CellFailover {
  double at_s = std::numeric_limits<double>::infinity();
  net::SharedLink* fallback = nullptr;
  double reconnect_delay_s = 0.0;
};

// Runs every session in `engines`, and every arrival, to completion. `link`
// is the shared link the engines contend on, or nullptr when each engine
// integrates a dedicated trace (then nothing may arrive or fail over).
//   next_arrival_s() -> double: time of the next arrival, +infinity if none;
//   admit(net::SharedLink& live) -> size_t: admits that arrival on the link
//     live at its instant, returns its slot in `engines` (growing it if
//     needed) and moves the source on;
//   retire(size_t slot): the engine in `slot` just finished.
// `loop_name` prefixes a LivelockError's message.
template <class NextArrival, class Admit, class Retire>
void run_cell_loop(std::vector<std::unique_ptr<SessionEngine>>& engines, net::SharedLink* link,
                   CellFailover failover, const std::string& loop_name,
                   NextArrival&& next_arrival_s, Admit&& admit, Retire&& retire) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto live_slot = [&](size_t i) { return engines[i] != nullptr && !engines[i]->done(); };

  util::IndexedMinHeap events;
  events.ensure_size(engines.size());
  size_t active = 0;
  for (size_t i = 0; i < engines.size(); ++i) {
    if (!live_slot(i)) continue;
    events.update(i, engines[i]->next_event_time());
    ++active;
  }

  // transfer id -> slot, recorded as transfers join the live link.
  std::vector<size_t> transfer_owner;
  const auto record_join = [&](size_t idx) {
    if (link == nullptr || engines[idx]->state() != SessionEngine::State::kTransferring) return;
    const size_t id = engines[idx]->transfer_id();
    if (transfer_owner.size() <= id) transfer_owner.resize(id + 1);
    transfer_owner[id] = idx;
  };
  // One re-push rule: done() engines report +infinity and leave the heap
  // (a completion that ends the session also clears its stale deadline).
  const auto settle = [&](size_t idx) {
    events.update(idx, engines[idx]->next_event_time());
    if (engines[idx]->done()) {
      --active;
      retire(idx);
      return true;
    }
    return false;
  };

  double prev_t = -kInf;
  bool prev_was_noop = false;
  while (active > 0 || next_arrival_s() < kInf) {
    const double t = std::min({events.min_time(),
                               link != nullptr ? link->next_completion_s() : kInf,
                               next_arrival_s(), failover.at_s});

    if (t == kInf) {
      // No event can ever fire again: every live session waits on a transfer
      // the link can never deliver (dead link). Surface the outage exactly
      // as a dedicated dead link does at request time.
      for (size_t idx = 0; idx < engines.size(); ++idx) {
        if (!live_slot(idx)) continue;
        engines[idx]->fail_transfer();
        retire(idx);
      }
      return;
    }

    size_t processed = 0;
    if (link != nullptr) {
      link->advance_to(t);
      for (const net::SharedLink::Completion& completion : link->completions_sorted()) {
        ++processed;
        const size_t idx = transfer_owner[completion.id];
        engines[idx]->complete_transfer(completion.finish_s);
        settle(idx);
      }
      link->clear_completions();
    }

    while (next_arrival_s() <= t) {
      const size_t idx = admit(*link);
      events.update(idx, engines[idx]->next_event_time());
      ++active;
      ++processed;
    }

    // A chain may end in a join (kRtt expiring at t with rtt 0), which is
    // legal because the link already sits at t.
    while (events.min_time() <= t) {
      const size_t idx = events.min_index();
      engines[idx]->advance_to(t);
      ++processed;
      if (!settle(idx)) record_join(idx);
    }

    // In-flight attempts are aborted and charged by the engine; idle
    // sessions just repoint. Everyone re-enters the heap at its new time.
    if (failover.at_s <= t) {
      ++processed;
      for (size_t idx = 0; idx < engines.size(); ++idx) {
        if (!live_slot(idx)) continue;
        engines[idx]->rehome(*failover.fallback, failover.reconnect_delay_s, t);
        events.update(idx, engines[idx]->next_event_time());
      }
      link = failover.fallback;
      failover.at_s = kInf;
    }

    // One no-op iteration is legal (the link predicted a completion whose
    // drain fell an epsilon short), but time must then move.
    if (processed == 0 && prev_was_noop && t == prev_t) {
      size_t stuck = 0;
      while (stuck < engines.size() && !live_slot(stuck)) ++stuck;
      throw LivelockError(loop_name, stuck, t);
    }
    prev_was_noop = processed == 0;
    prev_t = t;
  }
}

}  // namespace sensei::sim
