// Traced replicas: the fleet cell loop and the dedicated-link session loop
// re-driven from public APIs with a span around every call into a layer,
// and the per-layer metrics assembled from the resulting ledger.
//
// A replica is only evidence if it computes what the library computes, so
// every traced run is gated: the replica's outputs must equal the library's
// on the same inputs bit for bit (Workload::trace does the comparison).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "ledger.h"
#include "sim/fleet.h"
#include "workloads.h"

namespace sensei::benchmark {

// Counts the ledger cannot see.
struct TraceCounters {
  uint64_t loop_iterations = 0;  // fleet event-loop instants
  uint64_t chunks = 0;           // chunks downloaded by the traced sessions
  uint64_t vi_tables_created = 0;
  uint64_t plan_bytes_max = 0;   // largest PlanBatch footprint of any cell
  // One per cell or per session, in replay order.
  struct Root {
    double untraced_ns = 0.0;  // wall time of the untraced run
    double traced_ns = 0.0;    // wall time of the traced run
    uint64_t ticks = 0;        // the traced root's interval
    uint64_t spans = 0;        // spans closed in it, its own included
  };
  std::vector<Root> roots;
};

// The replays run each cell, or each session, twice back to back: untraced
// (a disabled ledger) and traced into `ledger`, in alternating order. Both
// runs' wall times land in `counters.roots`; the traced result is returned.

// Replays cells [0, config.num_cells) of `config` one after another and
// folds them in cell order, exactly as FleetSimulator::run does.
sim::FleetAggregates replay_fleet(const sim::FleetConfig& config,
                                  const std::vector<const media::EncodedVideo*>& videos,
                                  Ledger& ledger, TraceCounters& counters);

// Replays Experiments::run_grid(videos, traces, policy_factory(specs[p]),
// weighted[p] ? weights : {}, ...) for every p, serially in the grid's
// row-major order. The policies interleave session by session, so machine
// drift spreads evenly over them; returns one grid per spec.
std::vector<std::vector<core::Experiments::RunResult>> replay_grids(
    const std::vector<std::string>& specs, const std::vector<bool>& weighted,
    const std::vector<media::EncodedVideo>& videos,
    const std::vector<net::ThroughputTrace>& traces,
    const std::vector<std::vector<double>>& weights, Ledger& ledger, TraceCounters& counters);

// Sets `ledger`'s span costs once its replays are done: a span's full cost
// is the traced runs' extra wall time divided by the spans they closed,
// taken as the median over 16 blocks of consecutive roots.
void set_span_costs(Ledger& ledger, const TraceCounters& counters);

// The per-layer metrics of BENCHMARK.json from one traced run, given the
// library's wall time on the same inputs and one thread.
std::vector<Metric> per_layer_metrics(const Ledger& ledger, const TraceCounters& counters,
                                      double library_ns);

}  // namespace sensei::benchmark
