// DASH-like player simulator.
//
// Event model (standard in ABR simulators such as Pensieve's): chunks are
// downloaded sequentially; while a chunk downloads, the playout buffer drains
// in real time. If it empties, playback stalls (rebuffering). The buffer is
// capped; the player idles when full.
//
// SENSEI's §5 extension is supported natively: a decision may carry a
// *scheduled rebuffering* time. Playback is paused for that long while
// downloads continue — in buffer terms, the buffer level is credited by the
// pause length and the pause is charged to the next chunk's stall time
// (exactly how SENSEI-Pensieve's "increment the buffer state" is described).
//
// Session timing is owned by the resumable sim::SessionEngine state machine
// (sim/session_engine.h): Player::stream drives one engine to completion,
// and sim::Simulator interleaves many for multi-session contention
// scenarios; the trajectory it records is a sim::SessionTimeline
// (sim/timeline.h). The pre-timeline accounting loop survives only as a
// test oracle (tests/oracles/legacy_player.h), the reference for the
// bit-identity gate in tests/test_timeline.cpp.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "media/encoder.h"
#include "net/trace.h"
#include "sim/session.h"
#include "sim/timeline.h"

namespace sensei::abr {
class PlanBatch;  // cross-session planning-table pool (abr/planner.h)
}

namespace sensei::sim {

// A read-only view of contiguous weights (C++17 has no std::span).
struct WeightView {
  const double* data = nullptr;
  size_t count = 0;

  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  double operator[](size_t i) const { return data[i]; }
};

// What an ABR algorithm sees before choosing the next chunk's rendition.
struct AbrObservation {
  size_t next_chunk = 0;
  size_t num_chunks = 0;
  double buffer_s = 0.0;
  size_t last_level = 0;
  double last_throughput_kbps = 0.0;          // goodput of the last download (RTT excluded)
  double last_download_time_s = 0.0;          // wall time incl. RTT
  const media::EncodedVideo* video = nullptr;
  // Sensitivity weights for chunks [next_chunk, num_chunks): a view of the
  // session's own vector, valid during decide(); empty when the manifest
  // carries none (weight-unaware ABRs ignore it). Each policy's own horizon
  // bounds what it reads.
  WeightView future_weights;
};

struct AbrDecision {
  size_t level = 0;
  // Deliberate playback pause (seconds) taken before this chunk plays.
  double scheduled_rebuffer_s = 0.0;
};

class AbrPolicy {
 public:
  virtual ~AbrPolicy() = default;
  virtual const char* name() const = 0;
  // Called once per session before the first decision.
  virtual void begin_session(const media::EncodedVideo& video) { (void)video; }
  virtual AbrDecision decide(const AbrObservation& obs) = 0;
  // Offers (nullptr revokes) a pool of static planning tables shared across
  // a Simulator run's sessions. Purely an optimization hook: attaching must
  // never change a policy's decisions, and the caller owning the batch
  // detaches it before the batch dies. Policies without planners ignore it.
  virtual void attach_plan_batch(abr::PlanBatch* batch) { (void)batch; }
};

// Per-session recovery behavior: request timeouts, bounded retries with
// exponential backoff + deterministic jitter, and a lower re-request rung on
// retry. The defaults disable every mechanism — an infinite timeout means no
// attempt ever times out, so a default-constructed config reproduces the
// pre-resilience engine bit for bit (no extra float ops, no RNG draws).
struct ResilienceConfig {
  // Wall-clock budget per request attempt, measured from the instant the
  // request is issued (covers RTT + transfer). +infinity disables timeouts.
  double request_timeout_s = std::numeric_limits<double>::infinity();
  // Retries allowed after the first attempt times out. With the budget
  // exhausted the chunk — and the session — ends in kOutage
  // (OutcomeCause::kTimeoutBudget).
  size_t max_retries = 0;
  // Backoff before retry k (1-based): min(base * factor^(k-1), max), then
  // * (1 + jitter_frac * u) with u drawn deterministically in [-1, 1) from
  // (jitter_seed, session tag, chunk, attempt) — identical realizations
  // across threads/shards, decorrelated across sessions.
  double backoff_base_s = 0.5;
  double backoff_factor = 2.0;
  double backoff_max_s = 8.0;
  double backoff_jitter_frac = 0.0;
  uint64_t jitter_seed = 0;
  // Retry one rung lower per failed attempt (floored at rung 0) — a timeout
  // is congestion evidence, so the retry asks for less.
  bool retry_lower_rung = true;

  bool enabled() const {
    return request_timeout_s < std::numeric_limits<double>::infinity();
  }
};

struct PlayerConfig {
  double max_buffer_s = 30.0;
  double rtt_s = 0.08;
  // Multi-session runs only (sim::Simulator, and sim::FleetSimulator across
  // all of its cells and worker threads): share one abr::PlanBatch of
  // planning tables across all sessions' policies for the duration of the
  // run. Bit-identical output either way; off exists for A/B tests.
  bool share_plan_tables = true;
  // Record the per-chunk SessionTimeline trajectory. Decisions and the
  // emitted ChunkRecords are byte-identical either way (policies never see
  // the timeline); opting out skips the per-session timeline allocation
  // entirely — the fleet-scale memory mode. With it off,
  // SessionResult::timeline() is null.
  bool record_timeline = true;
  // Timeout/retry/backoff recovery; disabled by default (see above).
  ResilienceConfig resilience;
};

class Player {
 public:
  explicit Player(PlayerConfig config = PlayerConfig());

  // Streams `video` over `trace` under `policy`. `weights` (optional) is the
  // per-chunk sensitivity vector distributed via the manifest; the policy
  // sees its remaining weights each decision. The returned session carries
  // the exact trajectory (SessionResult::timeline(), unless record_timeline
  // is off) and, on a dead link, truncates with SessionOutcome::kOutage.
  SessionResult stream(const media::EncodedVideo& video, const net::ThroughputTrace& trace,
                       AbrPolicy& policy, const std::vector<double>& weights = {}) const;

  const PlayerConfig& config() const { return config_; }

 private:
  PlayerConfig config_;
};

}  // namespace sensei::sim
