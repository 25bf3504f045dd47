// Exact event-driven session timeline.
//
// The timeline engine is the simulator's single source of truth for *when*
// things happen in a streaming session: every download, stall, scheduled
// pause, buffer-cap idle, and RTT wait is an explicit, ordered, exactly
// placed span of wall clock. It replaced the ad-hoc per-chunk accounting
// of the legacy player loop (kept only as a test oracle,
// tests/oracles/legacy_player.h), and fixes its two timing bugs by
// construction:
//
//  * RTT is request dead time — it burns wall clock *before* the first
//    byte and consumes no trace capacity, so goodput estimates exclude it
//    (the legacy loop folded RTT into the transfer, biasing every
//    throughput sample low on small chunks).
//  * Zero-throughput stretches yield unbounded stalls or a typed
//    `SessionOutcome::kOutage`, never a silently faked completion (the
//    legacy trace walk gave up after 10,000 intervals and reported the
//    chunk as downloaded).
//
// Timing model (pinned by tests/test_timeline.cpp; see README "Timing
// model"):
//
//  * startup   — the first chunk's download (plus any scheduled pre-roll
//                wait) is join latency, not a stall.
//  * stall     — the playout buffer empties mid-download: playback freezes
//                from `arrival - stall` until the chunk arrives.
//  * scheduled pause — an ABR-initiated pause (SENSEI §5). Downloads
//                continue while playback is frozen, which in buffer terms
//                credits the pause length to the buffer; the pause is
//                charged to the next chunk's stall time.
//  * idle      — the buffer would exceed its cap: the client stops
//                requesting while playback drains the excess in real time.
//
// On well-behaved traces (no outage) with rtt_s = 0 the engine is
// bit-identical to the legacy oracle, field for field — the equivalence
// gate in tests/test_timeline.cpp enforces it on a seeded
// (video × trace × policy) grid at 1 and 4 runner threads.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/session.h"

namespace sensei::sim {

// Exact per-chunk timing decomposition. All wall-clock fields are seconds
// since the session began (the first request is issued at 0).
struct ChunkTrajectory {
  size_t chunk = 0;
  size_t level = 0;                 // rung actually delivered (after any retry drop)
  double request_wall_s = 0.0;      // first download request issued
  // Wall clock burnt by failed attempts: each timed-out (or failed-over)
  // attempt's RTT + partial transfer. 0 unless resilience fired.
  double retry_wasted_s = 0.0;
  // Backoff waits between attempts (exponential backoff and/or failover
  // reconnection delay). 0 unless resilience fired.
  double backoff_s = 0.0;
  size_t retries = 0;               // failed attempts that were retried
  double rtt_s = 0.0;               // request dead time of the delivering attempt
  double transfer_s = 0.0;          // bytes on the wire (delivering attempt)
  double arrival_wall_s = 0.0;      // request + retry_wasted + backoff + rtt + transfer
  double stall_s = 0.0;             // unscheduled stall during this download
  double stall_start_wall_s = 0.0;  // arrival - stall (only meaningful when stall_s > 0)
  double scheduled_pause_s = 0.0;   // ABR-scheduled pause credited to the buffer
  double idle_s = 0.0;              // buffer-cap idle after arrival
  double buffer_before_s = 0.0;     // playout buffer at request time
  double buffer_after_s = 0.0;      // after arrival, credits, and the cap
  double playhead_before_s = 0.0;   // media seconds rendered at request time
  double playhead_after_s = 0.0;    // media seconds rendered at the next request
  // Scheduled-pause seconds not yet served at the end of this chunk's
  // window. A pause is credited to the buffer at decision time (SENSEI §5)
  // but the viewer serves it across the *following* download windows, so
  // the credited buffer holds stored media plus this debt and the exact
  // conservation law is
  //   playhead + buffer - pause_debt == media arrived.
  double pause_debt_after_s = 0.0;
  double goodput_kbps = 0.0;        // size * 8 / transfer — RTT excluded
};

// One span on the session timeline, expanded from the trajectories.
//
// kRttWait / kTransfer / kIdle partition each chunk's wall-clock download
// window. kStall and kScheduledPause are playback-state overlays: a stall
// occupies the tail of its chunk's download window (the buffer ran dry
// before the bytes landed), and a scheduled pause overlaps the *following*
// download window (downloads continue while playback is frozen — the
// buffer-credit model of SENSEI §5). kStartupWait covers join latency.
// kRetryWait / kBackoff cover resilience recoveries: the wall clock burnt
// by failed request attempts and the backoff waits between them. The
// trajectory stores per-chunk totals, not per-attempt spans, so events()
// renders them as one consolidated span each (waste first, then backoff)
// between the request and the delivering attempt's RTT — exact in total
// duration, consolidated in ordering.
enum class TimelineEventKind {
  kStartupWait,
  kRttWait,
  kTransfer,
  kStall,
  kScheduledPause,
  kIdle,
  kRetryWait,
  kBackoff,
};

const char* to_string(TimelineEventKind kind);

struct TimelineEvent {
  TimelineEventKind kind = TimelineEventKind::kTransfer;
  size_t chunk = 0;
  double start_s = 0.0;       // wall clock
  double duration_s = 0.0;
  double buffer_start_s = 0.0;
  double buffer_end_s = 0.0;
};

// The full playhead/buffer trajectory of one session.
class SessionTimeline {
 public:
  SessionTimeline() = default;
  SessionTimeline(double chunk_duration_s, double rtt_s);

  const std::vector<ChunkTrajectory>& chunks() const { return chunks_; }
  double chunk_duration_s() const { return chunk_duration_s_; }
  double rtt_s() const { return rtt_s_; }

  SessionOutcome outcome() const { return outcome_; }
  // Valid when outcome() == kOutage: the chunk whose download never
  // completed, and the wall clock at which its doomed request was issued.
  size_t outage_chunk() const { return outage_chunk_; }
  double outage_wall_s() const { return outage_wall_s_; }

  double startup_delay_s() const { return startup_delay_s_; }
  // Wall clock when the last completed chunk's window closed (arrival +
  // idle); 0 for an empty timeline.
  double duration_s() const;

  double total_stall_s() const;             // unscheduled + scheduled
  double total_unscheduled_stall_s() const;
  double total_scheduled_pause_s() const;
  double total_idle_s() const;
  // Wall clock of the first unscheduled stall's onset, or -1 if none.
  double first_stall_wall_s() const;

  // Expands the trajectories into ordered timeline events (zero-length
  // spans are skipped). Within a chunk: startup-wait / rtt / transfer /
  // stall overlay / scheduled-pause overlay / idle.
  std::vector<TimelineEvent> events() const;

  // Cross-checks the trajectory invariants (continuity of buffer, playhead,
  // and wall clock; non-negative spans; cap respected). Returns false and
  // fills `why` (when non-null) on the first violation. Exercised by the
  // test suite after every engine change.
  bool check_invariants(std::string* why = nullptr) const;

  // --- engine-side mutation (used by sim::SessionEngine) -------------------
  // Pre-sizes the trajectory store so the per-chunk push never reallocates
  // on the session hot path.
  void reserve(size_t num_chunks) { chunks_.reserve(num_chunks); }
  void push_chunk(const ChunkTrajectory& t) { chunks_.push_back(t); }
  void set_startup_delay(double s) { startup_delay_s_ = s; }
  void mark_outage(size_t chunk, double wall_s);

 private:
  std::vector<ChunkTrajectory> chunks_;
  double chunk_duration_s_ = 4.0;
  double rtt_s_ = 0.0;
  double startup_delay_s_ = 0.0;
  SessionOutcome outcome_ = SessionOutcome::kCompleted;
  size_t outage_chunk_ = 0;
  double outage_wall_s_ = 0.0;
};

}  // namespace sensei::sim
