#include "sim/simulator.h"

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>

#include "abr/planner.h"
#include "net/fault.h"
#include "net/shared_link.h"
#include "sim/cell_loop.h"
#include "sim/session_engine.h"

namespace sensei::sim {

const char* to_string(LinkMode mode) {
  switch (mode) {
    case LinkMode::kDedicated: return "dedicated";
    case LinkMode::kShared: return "shared";
  }
  return "?";
}

Simulator::Simulator(PlayerConfig config) : config_(config) {
  if (config_.max_buffer_s <= 0.0)
    throw std::runtime_error("simulator: max buffer must be > 0");
}

std::vector<MultiSessionResult> Simulator::run(const std::vector<SessionSpec>& specs,
                                               const net::ThroughputTrace& trace,
                                               LinkMode mode,
                                               const net::FaultPlan* faults) const {
  // Capacity faults are materialized onto the trace before anything runs
  // (net/fault.h); only the RTT spikes need the live plan, via the engines.
  const net::ThroughputTrace* net_trace = &trace;
  net::ThroughputTrace faulted;
  if (faults != nullptr && !faults->empty()) {
    faulted = faults->apply_to_trace(trace);
    net_trace = &faulted;
  }

  const std::vector<double> no_weights;
  std::optional<net::SharedLink> link;
  if (mode == LinkMode::kShared) link.emplace(*net_trace);

  std::vector<std::unique_ptr<SessionEngine>> engines;
  engines.reserve(specs.size());
  for (const SessionSpec& spec : specs) {
    if (spec.video == nullptr || spec.policy == nullptr)
      throw std::runtime_error("simulator: session spec needs a video and a policy");
    // A negative start would be silently clamped to 0 by the trace
    // integrator (misreporting contention), and a NaN start would strand
    // the engine outside the event heap: both fail loudly instead.
    if (!std::isfinite(spec.start_s) || spec.start_s < 0.0)
      throw std::runtime_error("simulator: session start must be finite and >= 0");
    const std::vector<double>& w = spec.weights != nullptr ? *spec.weights : no_weights;
    if (link) {
      engines.push_back(std::make_unique<SessionEngine>(config_, *spec.video, *link,
                                                        *spec.policy, w, spec.start_s));
    } else {
      engines.push_back(std::make_unique<SessionEngine>(config_, *spec.video, *net_trace,
                                                        *spec.policy, w, spec.start_s));
    }
    engines.back()->set_chunk_limit(spec.chunk_limit);
    // Stable per-session jitter identity (spec order); the live plan reaches
    // the engines for RTT spikes (nullptr detaches — the common case).
    engines.back()->set_session_tag(engines.size() - 1);
    engines.back()->set_fault_plan(faults);
  }

  // One pool of static planning tables shared by every session in this run:
  // N concurrent Fugu sessions on the same ladder build their chunk-size /
  // quality tables once instead of N times per decision. Attaching never
  // changes a decision (planners read the exact values they would compute
  // locally), and the guard detaches on every exit — including a
  // LivelockError from the loop — so a policy reused after run() never
  // dangles into a dead batch.
  abr::PlanBatch batch;
  struct BatchGuard {
    const std::vector<SessionSpec>* specs = nullptr;
    ~BatchGuard() {
      if (specs == nullptr) return;
      for (const SessionSpec& spec : *specs) spec.policy->attach_plan_batch(nullptr);
    }
  } batch_guard;
  if (config_.share_plan_tables) {
    batch_guard.specs = &specs;
    for (const SessionSpec& spec : specs) spec.policy->attach_plan_batch(&batch);
  }

  // Every session is in `engines` already: no arrivals, no failover, and
  // nothing to fold on retirement (results are taken below).
  run_cell_loop(
      engines, link ? &*link : nullptr, CellFailover{}, "simulator",
      [] { return std::numeric_limits<double>::infinity(); },
      [](net::SharedLink&) -> size_t { return 0; }, [](size_t) {});

  std::vector<MultiSessionResult> results;
  results.reserve(engines.size());
  for (size_t i = 0; i < engines.size(); ++i) {
    results.push_back({specs[i].start_s, engines[i]->take_result()});
  }
  return results;
}

std::vector<SessionSpec> StaggeredSpecs::build() const {
  if (videos.empty()) throw std::runtime_error("simulator: no videos");
  if (policies.size() != num_sessions)
    throw std::runtime_error("simulator: one policy instance per session is required");
  // Weights are per-video sensitivity vectors: they must pair 1:1 with the
  // video pool and cycle on the same index, or a session would stream one
  // video under another's weights (silently, whenever chunk counts match).
  if (!weights.empty() && weights.size() != videos.size())
    throw std::runtime_error("simulator: weights pool must pair 1:1 with the video pool");
  std::vector<SessionSpec> specs(num_sessions);
  for (size_t k = 0; k < num_sessions; ++k) {
    size_t v = k % videos.size();
    specs[k].video = videos[v];
    specs[k].policy = policies[k];
    specs[k].weights = weights.empty() ? nullptr : weights[v];
    specs[k].start_s = stagger_s * static_cast<double>(k);
    specs[k].chunk_limit = chunk_limit;
  }
  return specs;
}

}  // namespace sensei::sim
