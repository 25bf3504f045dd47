// Resumable streaming-session engine.
//
// SessionEngine is the event-driven session timeline of sim/timeline.h
// decomposed into an explicit, interruptible state machine so the
// discrete-event loop (sim/cell_loop.h) can interleave many concurrent
// sessions over a shared clock. One engine owns everything the monolithic
// loop owned — the ABR observation buffers, the throughput history ring,
// the trace cursor, the in-flight chunk's record and trajectory — and
// exposes the session as a sequence of timed transitions:
//
//   kRequesting --(decide)--> kRtt --(request dead time)--> kTransferring
//        ^                                                      |
//        |                                              (last byte lands)
//        +------- kArrived (accounting + buffer-cap idle) <-----+
//                     |
//                     +--> kDone (all chunks) / kOutage (link died)
//
// With PlayerConfig::resilience enabled, a request attempt that misses its
// deadline detours through the recovery loop instead of ending the session:
//
//   kRtt/kTransferring --(deadline)--> kTimedOut --> kBackoff --> kRetrying
//                                          |                         |
//                               (budget exhausted)          (re-request, one
//                                          |                 rung lower)
//                                       kOutage  <-----------> kRtt ...
//
// Each failed attempt burns exactly the timeout as wall clock (RTT +
// partial transfer), the backoff wait is exponential with deterministic
// jitter, and the chunk's ChunkTrajectory carries the recovery spans so the
// conservation law (arrival == request + retry waste + backoff + rtt +
// transfer) still holds. kOutage is reached only when the bounded retry
// budget is exhausted (OutcomeCause::kTimeoutBudget) or the link is dead
// with no resilience armed (OutcomeCause::kDeadLink). With the default
// (disabled) ResilienceConfig every expression the engine evaluates is the
// pre-resilience one, bit for bit.
//
// Driving contract: next_event_time() is the absolute simulation time of
// the next self-driven transition; advance_to(t) performs every transition
// scheduled at or before t. On a dedicated link the engine integrates its
// own transfers (a TraceCursor over the trace index), so every state has a
// finite next event. On a net::SharedLink the transfer's finish depends on
// who else is on the link: the engine reports +infinity while
// kTransferring and the driver delivers the link's verdict through
// complete_transfer() / fail_transfer().
//
// Equivalence is the load-bearing property: however advance_to slices the
// session — one call to run(), or thousands of interleaved event-step calls
// from a Simulator — the emitted SessionResult and SessionTimeline are
// bit-identical to the monolithic loop this replaces, because each state
// executes the exact statements (same expressions, same order) of the
// original loop body. Player::stream and stream_timeline are now thin
// run-to-completion wrappers over this class; tests/test_simulator.cpp
// gates Simulator-driven sessions against them, and the legacy-vs-timeline
// gate of tests/test_timeline.cpp pins the numbers themselves.
#pragma once

#include <memory>
#include <vector>

#include "media/encoder.h"
#include "net/trace.h"
#include "sim/player.h"
#include "sim/session.h"
#include "sim/timeline.h"

namespace sensei::net {
class FaultPlan;
class SharedLink;
}

namespace sensei::sim {

class SessionEngine {
 public:
  enum class State {
    kRequesting,    // next chunk's request not yet issued
    kRtt,           // request in flight: dead time, no trace capacity
    kTransferring,  // bytes on the wire
    kArrived,       // chunk landed; serving any buffer-cap idle
    kTimedOut,      // an attempt missed its deadline; retry decision pending
    kBackoff,       // waiting out the retry backoff / failover reconnect
    kRetrying,      // backoff served; the chunk is about to be re-requested
    kDone,          // every chunk downloaded
    kOutage,        // link died / retry budget exhausted; result truncated
  };

  // Dedicated link: the engine integrates `trace` itself. `video`, `trace`,
  // `policy`, and `weights` must outlive the engine (the same lifetimes
  // Player::stream requires of its arguments for the duration of the call).
  // `start_s` places the session's first request on the absolute simulation
  // clock; the emitted timeline stays session-relative, exactly as
  // Player::stream emits it.
  SessionEngine(const PlayerConfig& config, const media::EncodedVideo& video,
                const net::ThroughputTrace& trace, AbrPolicy& policy,
                const std::vector<double>& weights, double start_s = 0.0);

  // Shared link: transfers contend on `link`; the driver owns transfer
  // completion (complete_transfer / fail_transfer).
  SessionEngine(const PlayerConfig& config, const media::EncodedVideo& video,
                net::SharedLink& link, AbrPolicy& policy, const std::vector<double>& weights,
                double start_s = 0.0);

  State state() const { return state_; }
  bool done() const { return state_ == State::kDone || state_ == State::kOutage; }
  double start_s() const { return start_abs_s_; }
  size_t next_chunk() const { return next_chunk_; }

  // Viewer abandonment: end the session (kDone, outcome kCompleted) after
  // `limit` chunks even if the video has more. Clamped to [1, num_chunks];
  // SIZE_MAX (the default) watches to the end. Call before the first
  // transition — the limit is a property of the viewer, not a mid-session
  // control channel.
  void set_chunk_limit(size_t limit);

  // Forwards a shared planning-table pool to the session's policy.
  // sim::Simulator attaches one batch per run and detaches (nullptr) before
  // the run returns, so the policy never outlives the tables it reads.
  void attach_plan_batch(abr::PlanBatch* batch) { policy_->attach_plan_batch(batch); }

  // Identity salt for the deterministic backoff jitter (mixed with the
  // chunk and attempt indices). Drivers set it to the session's stable
  // ordinal so realizations are decorrelated across sessions yet identical
  // across threads/shards. Call before the first transition.
  void set_session_tag(uint64_t tag);

  // Optional fault plan (nullable): the engine queries rtt_extra_s() at
  // each request instant (capacity faults ride the materialized trace, not
  // the engine). `plan` must outlive the session. Call before the first
  // transition; cleared by reset().
  void set_fault_plan(const net::FaultPlan* plan);

  // Absolute time of the next self-driven transition; +infinity when done,
  // or while a shared-link transfer is in flight (the link owns that event).
  double next_event_time() const { return next_event_abs_s_; }

  // Performs every transition scheduled at or before absolute time `t`.
  void advance_to(double t);

  // Performs exactly one transition (the one at next_event_time()) — the
  // single-step drive, for callers that want to observe every state a
  // session passes through, including the transient ones advance_to chains
  // across (a zero-idle kArrived, a zero-RTT kRtt).
  void step();

  // --- shared-link driver interface ---------------------------------------
  // Valid while kTransferring on a shared link: the id link.begin returned.
  size_t transfer_id() const { return transfer_id_; }
  // The link delivered the last byte at absolute time `finish_abs_s`:
  // performs the arrival accounting and re-enters the request loop.
  void complete_transfer(double finish_abs_s);
  // The link can never deliver the in-flight transfer: truncates the
  // session as an outage, exactly as a dedicated dead link does.
  void fail_transfer();

  // Cell failover (fleet): rebind the session to `link`. A request in
  // flight (kRtt / kTransferring) died with the old cell — its span so far
  // is charged as retry waste, the reconnection delay as backoff, and the
  // chunk is re-requested at its current rung on the new link; a failover
  // is not congestion evidence, so it neither drops the rung nor spends the
  // retry budget. Sessions between requests just reconnect. `now_abs_s` is
  // the failover instant (the driver has advanced the engine to it).
  void rehome(net::SharedLink& link, double reconnect_delay_s, double now_abs_s);

  // Drives the session to completion and returns the result. Requires a
  // dedicated link (a shared-link engine waits on its driver).
  SessionResult run();

  // Valid once done(), once: the finished session, identical to what
  // Player::stream would have returned. The SessionResult (strings, record
  // vector) is materialized here, not during the run — fleet callers that
  // fold aggregates straight from records() never pay for it. Throws on a
  // second take (the records move out) and while the session is in flight.
  SessionResult take_result();

  // --- aggregation-without-materialization interface -----------------------
  // Everything a streaming aggregator needs, readable once done() without
  // building a SessionResult. records() is also valid mid-session (the
  // chunks downloaded so far).
  const std::vector<ChunkRecord>& records() const { return records_; }
  SessionOutcome outcome() const {
    return state_ == State::kOutage ? SessionOutcome::kOutage : SessionOutcome::kCompleted;
  }
  // Typed cause behind outcome(): kDeadLink / kTimeoutBudget for outages,
  // kAbandoned for chunk-limited sessions, kNone for full completions.
  OutcomeCause outcome_cause() const {
    if (state_ == State::kOutage) return outage_cause_;
    return end_chunk_ < n_ ? OutcomeCause::kAbandoned : OutcomeCause::kNone;
  }
  // Where the session stopped: the failed chunk (outage) or the first chunk
  // never requested (abandonment / completion).
  size_t failed_chunk() const { return state_ == State::kOutage ? next_chunk_ : end_chunk_; }
  double startup_delay_s() const { return startup_delay_s_; }
  double total_stall_s() const { return total_stall_s_; }
  double wall_clock_s() const { return wall_clock_s_; }

  // --- resilience counters (session-scoped, reset by reset()) -------------
  size_t timeouts() const { return timeouts_; }              // attempts that missed a deadline
  size_t retries() const { return retries_; }                // retry attempts issued
  size_t recovered_chunks() const { return recovered_chunks_; }  // chunks delivered after >=1 reattempt
  size_t failovers() const { return failovers_; }            // rehome() calls on this session

  // Rebinds a finished (or fresh) engine to a new session, reusing every
  // buffer whose capacity the previous sessions grew — the fleet free-pool
  // primitive: after an engine has seen its longest video, reset() performs
  // no allocation when config.record_timeline is false (a fresh timeline is
  // unavoidable when recording: the previous result may still share it).
  // Shared-link form only — fleet cells drive engines through a SharedLink.
  // Same lifetime rules as the constructor; `chunk_limit` as set_chunk_limit.
  void reset(const media::EncodedVideo& video, net::SharedLink& link, AbrPolicy& policy,
             const std::vector<double>& weights, double start_s,
             size_t chunk_limit = static_cast<size_t>(-1));

 private:
  void init(const PlayerConfig& config, const std::vector<double>& weights, double start_s);
  void issue_request();    // kRequesting: decide + integrate (dedicated)
  void issue_retry();      // kRetrying: re-request the in-flight chunk
  void launch_attempt();   // arm the deadline, integrate (dedicated), enter kRtt
  void begin_transfer();   // kRtt expiry: first byte may move
  void finish_chunk();     // arrival accounting (the monolithic loop's tail)
  void enter_timed_out();  // the deadline fired: book the wasted attempt
  void resolve_timeout();  // kTimedOut: retry (backoff) or give up (outage)
  void mark_outage();      // truncate at the in-flight chunk
  void finalize();         // end-of-session timeline bookkeeping
  // Attempt plumbing: RTT at an absolute request instant (fault-plan aware)
  // and the deadline for the attempt starting then.
  double request_rtt_s(double attempt_start_abs_s) const;
  void arm_deadline();
  // Backoff before retry `attempt` (1-based): exponential, capped,
  // deterministically jittered from (jitter_seed, session tag, chunk,
  // attempt).
  double backoff_wait_s(size_t attempt) const;

  PlayerConfig config_;
  const media::EncodedVideo* video_ = nullptr;
  AbrPolicy* policy_ = nullptr;
  const std::vector<double>* weights_ = nullptr;  // nullable (weight-unaware)
  net::TraceCursor cursor_;                       // dedicated link
  net::SharedLink* link_ = nullptr;               // shared link

  State state_ = State::kRequesting;
  double start_abs_s_ = 0.0;      // absolute time of the session's epoch
  double next_event_abs_s_ = 0.0;

  // Session accumulators — field for field the monolithic loop's locals.
  double tau_ = 0.0;
  size_t n_ = 0;
  size_t levels_ = 0;
  size_t chunk_limit_ = static_cast<size_t>(-1);  // viewer abandonment (raw)
  size_t end_chunk_ = 0;                          // min(n_, max(1, chunk_limit_))
  double wall_clock_s_ = 0.0;  // session-relative, like the emitted timeline
  double buffer_s_ = 0.0;
  double playhead_s_ = 0.0;
  double pause_debt_s_ = 0.0;
  double total_stall_s_ = 0.0;
  double startup_delay_s_ = 0.0;
  size_t last_level_ = 0;
  double last_throughput_ = 0.0;
  double last_download_time_ = 0.0;
  std::vector<double> history_;
  std::vector<ChunkRecord> records_;
  std::shared_ptr<SessionTimeline> timeline_;
  AbrObservation obs_;
  size_t next_chunk_ = 0;

  // In-flight chunk state, populated at kRequesting and consumed at arrival.
  const media::EncodedChunk* rep_ = nullptr;
  double scheduled_ = 0.0;
  double dl_s_ = 0.0;                 // retry waste + backoff + rtt + transfer wall time
  double transfer_elapsed_s_ = 0.0;   // wire time alone (delivering attempt)
  double transfer_start_abs_s_ = 0.0;
  size_t transfer_id_ = 0;
  ChunkRecord rec_;
  ChunkTrajectory traj_;

  // Resilience state. With the default (disabled) ResilienceConfig:
  // cur_rtt_s_ == config_.rtt_s, deadline_abs_s_ == +inf, and every
  // accumulator stays 0 — the pre-resilience expressions fall out bitwise.
  const net::FaultPlan* faults_ = nullptr;  // nullable; RTT spikes only
  uint64_t session_tag_ = 0;                // jitter identity salt
  double cur_rtt_s_ = 0.0;                  // RTT of the attempt in flight
  double last_rtt_s_ = 0.0;                 // RTT of the last delivered chunk
  double attempt_start_abs_s_ = 0.0;        // when the in-flight attempt was issued
  double deadline_abs_s_ = 0.0;             // attempt start + timeout (+inf disabled)
  bool pending_timeout_ = false;            // dedicated: this attempt cannot beat its deadline
  size_t attempts_failed_ = 0;              // timed-out attempts for the in-flight chunk
  size_t chunk_reattempts_ = 0;             // re-requests (timeout retries + failovers)
  double chunk_retry_wasted_s_ = 0.0;       // wall clock burnt by failed attempts
  double chunk_backoff_s_ = 0.0;            // backoff + reconnect waits
  size_t retry_level_ = 0;                  // rung the next reattempt will request
  OutcomeCause outage_cause_ = OutcomeCause::kDeadLink;
  size_t timeouts_ = 0;
  size_t retries_ = 0;
  size_t recovered_chunks_ = 0;
  size_t failovers_ = 0;

  bool result_taken_ = false;
};

}  // namespace sensei::sim
