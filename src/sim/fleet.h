// Fleet simulator: a sharded multi-bottleneck topology of independent
// SharedLink cells, sized for million-session populations.
//
// Topology. A CDN-scale deployment is not one bottleneck with N viewers —
// it is thousands of edge bottlenecks (a cell: one last-mile/edge link)
// each contending among the handful-to-hundreds of viewers behind it. A
// FleetSimulator run is `num_cells` such cells; each cell owns a seeded
// workload stream (sim/workload.h), its own generated bottleneck trace, and
// its own run of the one discrete-event loop (sim/cell_loop.h) fed by those
// arrivals, all derived from ExperimentRunner::task_seed(seed, cell) — a
// cell is a pure function of (config, videos, cell index).
//
// Scale discipline (what makes a million sessions fit):
//  - engines are pooled: a finished session's SessionEngine is reset() to
//    the next arrival instead of destroyed — with record_timeline off, the
//    steady-state event loop performs zero allocations (pinned by
//    tests/test_fleet_alloc.cpp);
//  - policies are pooled per unique canonical registry spec the same way
//    (begin_session resets; mix entries denoting the same configuration
//    share one pool);
//  - the link recycles transfer ids (SharedLink recycle_ids), so all
//    per-cell state is bounded by *peak concurrency*, not session count;
//  - planning tables are shared run-wide: run() owns one abr::PlanBatch
//    that every cell on every worker thread attaches to its policies
//    (when PlayerConfig::share_plan_tables is on), so a vi value table is
//    built once per discretized context for the whole run, not once per
//    cell. Its size is bounded by the distinct contexts (video, chunk,
//    forecast bins), not by the session or cell count;
//  - no per-session results are retained: each finished session folds into
//    streaming aggregates (util::stats MergeableAccumulator/QuantileSketch)
//    and is gone.
//
// Determinism. Cells are sharded across ExperimentRunner threads as
// contiguous blocks; per-cell aggregates are written at their cell index
// and folded serially in cell order after the fan-out. Thread and shard
// counts therefore change only which worker computes a cell, never any
// cell's content nor the merge order — fleet aggregates are bit-identical
// across --threads and --shards (pinned by tests/test_fleet.cpp and CI
// diffs on bench_fleet).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "media/encoder.h"
#include "net/fault.h"
#include "sim/player.h"
#include "sim/workload.h"
#include "util/stats.h"

namespace sensei::abr {
class PlanBatch;
}

namespace sensei::core {
class ExperimentRunner;
}

namespace sensei::sim {

class SessionEngine;

// Streaming fleet aggregates: everything the fleet reports, in O(1) memory
// per cell. Mergeable — merge() order must be fixed (the fleet folds in
// cell order) for bit-identical totals.
struct FleetAggregates {
  size_t cells = 0;
  size_t sessions = 0;
  size_t chunks = 0;
  size_t outages = 0;
  size_t abandoned = 0;  // completed early via the viewer's chunk limit
  // Sessions per unique canonical policy spec, parallel to
  // FleetSimulator::policy_specs(). Empty until a run fills it; merge()
  // grows it to the larger operand. completed/abandoned split the same
  // per-policy counts by how the session ended (outages are the remainder:
  // sessions - completed - abandoned).
  std::vector<size_t> sessions_by_policy;
  std::vector<size_t> completed_by_policy;
  std::vector<size_t> abandoned_by_policy;

  // --- resilience counters (all 0 when faults and timeouts are off) -------
  size_t timeouts = 0;          // request attempts that missed their deadline
  size_t retries = 0;           // retry attempts issued after a timeout
  size_t timeout_outages = 0;   // outages caused by retry-budget exhaustion
  size_t failovers = 0;         // sessions re-homed by a cell failover
  size_t failed_cells = 0;      // cells whose bottleneck hard-failed
  // A session is *disrupted* when it hit >= 1 timeout or failover, and
  // *recovered* when it was disrupted yet did not end in an outage — the
  // recovery rate bench_resilience sweeps is recovered / disrupted.
  size_t disrupted_sessions = 0;
  size_t recovered_sessions = 0;
  // Largest number of simultaneously active sessions in any one cell — the
  // quantity all per-cell memory is bounded by.
  size_t peak_concurrent = 0;

  // Per-session metrics (sessions with at least one chunk): mean per-chunk
  // QoE under the default qoe::ChunkQualityParams, mean bitrate, total
  // rebuffer, startup delay.
  util::MergeableAccumulator session_qoe;
  util::MergeableAccumulator session_bitrate_kbps;
  util::MergeableAccumulator session_rebuffer_s;
  util::MergeableAccumulator startup_delay_s;
  // Distribution of per-session mean QoE (P50/P90/P99 in the bench JSON).
  util::QuantileSketch qoe_sketch;

  void merge(const FleetAggregates& other);
};

// Fleet-level fault model. Everything is disabled by default — a default-
// constructed FleetFaultConfig reproduces pre-fault aggregates bit for bit
// (no extra RNG draws, no trace rebuilds). Per-cell realizations derive
// from task_seed(seed, cell) with fixed salts, so they are identical across
// --threads / --shards.
struct FleetFaultConfig {
  // Seeded trace faults per cell (outages / capacity collapses / RTT
  // spikes). All-zero mean counts (the default) inject nothing.
  net::RandomFaultSpec trace_faults;
  // Fraction of cells whose primary bottleneck hard-fails at a seeded time
  // drawn uniformly from [0, cell_failure_window_s) — 0 reuses the
  // workload's arrival window. Live sessions re-home to a fallback link
  // (the clean cell trace scaled by fallback_scale) after reconnect_delay_s.
  double cell_failure_fraction = 0.0;
  double cell_failure_window_s = 0.0;
  double reconnect_delay_s = 2.0;
  double fallback_scale = 0.5;

  bool any() const { return !trace_faults.empty() || cell_failure_fraction > 0.0; }
};

struct FleetConfig {
  WorkloadConfig workload;  // per-cell arrival/abandonment/policy/trace model
  size_t num_cells = 1;
  uint64_t seed = 1;
  // Fault injection + failover (disabled by default; see FleetFaultConfig).
  FleetFaultConfig faults;
  // Session mechanics. record_timeline defaults *off* here — the fleet
  // never reads timelines and keeping them would allocate per session.
  PlayerConfig player = [] {
    PlayerConfig c;
    c.record_timeline = false;
    return c;
  }();
  // Cell bottleneck capacity = generated trace * link_scale. 0 (default)
  // sizes it automatically to the workload's expected concurrency
  // (arrival rate x mean video duration, Little's law), so the per-viewer
  // share stays in the generated trace's band as the workload scales.
  double link_scale = 0.0;
  // Observation hook, called once per finished session *from the worker
  // thread running its cell*, before the engine is recycled. Must be
  // thread-safe across cells; keep it cheap. Tests use it to capture
  // per-session data the fleet itself deliberately does not retain.
  std::function<void(size_t cell, const SessionArrival&, const SessionEngine&)>
      on_session_done;
};

class FleetSimulator {
 public:
  explicit FleetSimulator(FleetConfig config);

  const FleetConfig& config() const { return config_; }

  // The unique canonical policy specs of the workload mix, in first-
  // occurrence order: FleetAggregates::sessions_by_policy[i] counts the
  // sessions that ran policy_specs()[i]. Mix entries that canonicalize to
  // the same spec share one pool slot (and one count).
  const std::vector<std::string>& policy_specs() const { return pool_specs_; }

  // Runs every cell to completion and returns the fleet-wide aggregates.
  // `videos` is the shared pool arrivals draw from (workload.num_videos is
  // overridden to its size); all pointers must outlive the call. Cells are
  // grouped into `num_shards` contiguous blocks fanned out over `runner`
  // (0 = one shard per cell). Aggregates are bit-identical for any thread
  // and shard count.
  FleetAggregates run(const std::vector<const media::EncodedVideo*>& videos,
                      const core::ExperimentRunner& runner, size_t num_shards = 0) const;

 private:
  FleetAggregates run_cell(size_t cell, const std::vector<const media::EncodedVideo*>& videos,
                           abr::PlanBatch& batch) const;

  FleetConfig config_;
  // Policy pooling tables, precomputed from the workload mix via the
  // registry: mix entry i runs the policy pool mix_to_pool_[i] keys.
  std::vector<std::string> pool_specs_;
  std::vector<size_t> mix_to_pool_;
};

}  // namespace sensei::sim
