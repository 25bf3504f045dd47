// Multi-session simulator: one event loop interleaving N SessionEngines.
//
// This is the scenario family the single-session Player cannot express:
// many concurrent viewers, arriving staggered over a shared clock, either
// each on a private copy of the network (kDedicated — the control case and
// the Player-equivalence gate) or all contending for one bottleneck
// (kShared — a net::SharedLink splitting each instant's trace capacity
// equally across active downloads).
//
// The engines run through the one discrete-event loop, sim/cell_loop.h
// (run_cell_loop), with no arrivals beyond the specs and no failover:
// deterministic by construction, ties break on spec index.
//
// Equivalence gate (tests/test_simulator.cpp): a single session driven
// through this loop on a dedicated link emits a SessionResult and
// SessionTimeline bit-identical to Player::stream — across policies,
// traces (looping, finite, outage) and ExperimentRunner thread counts —
// because SessionEngine executes the same statements whether it is sliced
// by this scheduler or driven to completion in one call.
#pragma once

#include <vector>

#include "media/encoder.h"
#include "net/trace.h"
#include "sim/cell_loop.h"  // LivelockError
#include "sim/player.h"
#include "sim/session.h"

namespace sensei::net {
class FaultPlan;
}

namespace sensei::sim {

// How sessions see the network.
enum class LinkMode {
  kDedicated,  // each session integrates the trace privately (no contention)
  kShared,     // all sessions split one net::SharedLink's capacity
};

const char* to_string(LinkMode mode);

// One viewer: a video, a per-session policy instance (never shared across
// sessions — policies carry mutable state), optional sensitivity weights,
// and the absolute arrival time of the first request. All pointers must
// outlive Simulator::run.
struct SessionSpec {
  const media::EncodedVideo* video = nullptr;
  AbrPolicy* policy = nullptr;
  const std::vector<double>* weights = nullptr;  // nullable
  double start_s = 0.0;
  // Viewer abandonment: the session ends (kCompleted) after downloading this
  // many chunks even if the video has more. SIZE_MAX: watches to the end.
  size_t chunk_limit = static_cast<size_t>(-1);
};

struct MultiSessionResult {
  double start_s = 0.0;   // when the session joined the simulation
  SessionResult session;  // timestamps session-relative, as Player emits them
};

class Simulator {
 public:
  explicit Simulator(PlayerConfig config = PlayerConfig());

  const PlayerConfig& config() const { return config_; }

  // Runs every session to completion (or outage) and returns results in
  // spec order. Deterministic: same specs + trace (+ fault plan) -> same
  // results, regardless of how sessions interleave in wall-clock terms.
  // `faults` (nullable) injects a net::FaultPlan: capacity faults are
  // materialized onto the trace before any session starts, RTT spikes are
  // queried by the engines per request. It must outlive the call. Throws
  // LivelockError if the loop stops making progress.
  std::vector<MultiSessionResult> run(const std::vector<SessionSpec>& specs,
                                      const net::ThroughputTrace& trace,
                                      LinkMode mode = LinkMode::kShared,
                                      const net::FaultPlan* faults = nullptr) const;

 private:
  PlayerConfig config_;
};

// Spec builder: N staggered sessions (session k arrives at k * stagger_s),
// cycling videos — each with its paired weights vector, when `weights` is
// non-empty (then it must be videos.size() long) — over the supplied pools;
// `policies` carries one instance per session. Replaces the old
// three-parallel-vector staggered_specs() signature, whose call sites were
// one positional mix-up away from streaming a video under another's
// weights.
struct StaggeredSpecs {
  std::vector<const media::EncodedVideo*> videos;  // cycled round-robin
  std::vector<AbrPolicy*> policies;                // exactly one per session
  std::vector<const std::vector<double>*> weights;  // empty, or 1:1 with videos
  size_t num_sessions = 0;
  double stagger_s = 0.0;
  // Applied to every session (viewer abandonment; SIZE_MAX = full video).
  size_t chunk_limit = static_cast<size_t>(-1);

  std::vector<SessionSpec> build() const;
};

}  // namespace sensei::sim
