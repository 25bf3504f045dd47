#include "sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "abr/planner.h"
#include "abr/registry.h"
#include "core/runner.h"
#include "net/shared_link.h"
#include "qoe/chunk_quality.h"
#include "sim/cell_loop.h"
#include "sim/session_engine.h"
#include "util/kernels.h"
#include "util/rng.h"

namespace sensei::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Fleet sessions carry no sensitivity weights; one shared empty vector
// keeps reset() reference-valid without per-session storage.
const std::vector<double> kNoWeights;

// Salts splitting the cell seed into decoupled fault streams: the trace
// fault plan and the cell-failure draw must not perturb the workload stream
// (or each other), so faults change *what breaks*, never who arrives when.
constexpr uint64_t kTraceFaultSalt = 0xFA01'7F4A'0000'0001ULL;
constexpr uint64_t kCellFailSalt = 0xFA01'7F4A'0000'0002ULL;

}  // namespace

void FleetAggregates::merge(const FleetAggregates& other) {
  cells += other.cells;
  sessions += other.sessions;
  chunks += other.chunks;
  outages += other.outages;
  abandoned += other.abandoned;
  auto add_counts = [](std::vector<size_t>& into, const std::vector<size_t>& from) {
    if (into.size() < from.size()) into.resize(from.size(), 0);
    for (size_t k = 0; k < from.size(); ++k) into[k] += from[k];
  };
  add_counts(sessions_by_policy, other.sessions_by_policy);
  add_counts(completed_by_policy, other.completed_by_policy);
  add_counts(abandoned_by_policy, other.abandoned_by_policy);
  timeouts += other.timeouts;
  retries += other.retries;
  timeout_outages += other.timeout_outages;
  failovers += other.failovers;
  failed_cells += other.failed_cells;
  disrupted_sessions += other.disrupted_sessions;
  recovered_sessions += other.recovered_sessions;
  peak_concurrent = std::max(peak_concurrent, other.peak_concurrent);
  session_qoe.merge(other.session_qoe);
  session_bitrate_kbps.merge(other.session_bitrate_kbps);
  session_rebuffer_s.merge(other.session_rebuffer_s);
  startup_delay_s.merge(other.startup_delay_s);
  qoe_sketch.merge(other.qoe_sketch);
}

FleetSimulator::FleetSimulator(FleetConfig config) : config_(std::move(config)) {
  if (config_.num_cells == 0) throw std::runtime_error("fleet: need at least one cell");
  if (config_.link_scale < 0.0) throw std::runtime_error("fleet: link scale must be >= 0");
  const FleetFaultConfig& faults = config_.faults;
  if (!(faults.cell_failure_fraction >= 0.0) || faults.cell_failure_fraction > 1.0)
    throw std::runtime_error("fleet: cell failure fraction must be in [0, 1]");
  if (faults.cell_failure_fraction > 0.0) {
    if (!(faults.fallback_scale > 0.0) || !std::isfinite(faults.fallback_scale))
      throw std::runtime_error("fleet: fallback scale must be finite and > 0");
    if (!(faults.reconnect_delay_s >= 0.0) || !std::isfinite(faults.reconnect_delay_s))
      throw std::runtime_error("fleet: reconnect delay must be finite and >= 0");
    if (faults.cell_failure_window_s < 0.0 || !std::isfinite(faults.cell_failure_window_s))
      throw std::runtime_error("fleet: cell failure window must be finite and >= 0");
  }
  // Fail config mistakes at construction, not on worker threads mid-run:
  // the generator's constructor runs the full validation suite (including
  // registry validation of every policy spec). num_videos is excluded —
  // run() overrides it with the actual pool size.
  WorkloadConfig probe_config = config_.workload;
  probe_config.num_videos = 1;
  WorkloadGenerator probe(probe_config, 0);

  // Policy pooling tables: mix entries that canonicalize to the same spec
  // share one pool (and one sessions_by_policy slot), keyed in first-
  // occurrence order so the layout is a pure function of the config.
  const std::vector<std::string>& specs = probe.canonical_policy_specs();
  mix_to_pool_.reserve(specs.size());
  for (const std::string& spec : specs) {
    size_t pool = pool_specs_.size();
    for (size_t i = 0; i < pool_specs_.size(); ++i) {
      if (pool_specs_[i] == spec) {
        pool = i;
        break;
      }
    }
    if (pool == pool_specs_.size()) pool_specs_.push_back(spec);
    mix_to_pool_.push_back(pool);
  }
}

FleetAggregates FleetSimulator::run(const std::vector<const media::EncodedVideo*>& videos,
                                    const core::ExperimentRunner& runner,
                                    size_t num_shards) const {
  if (videos.empty()) throw std::runtime_error("fleet: empty video pool");
  for (const media::EncodedVideo* v : videos) {
    if (v == nullptr) throw std::runtime_error("fleet: null video in pool");
  }
  const size_t cells = config_.num_cells;
  if (num_shards == 0 || num_shards > cells) num_shards = cells;

  // Per-cell aggregates land at their cell index; shards are contiguous
  // blocks. Neither the thread count nor the shard count can change what
  // any cell computes or the serial fold below — the bit-identity contract.
  // One planning-table batch serves every cell on every worker: each table
  // cell is a pure function of its key, so which cell or thread fills it
  // first never changes a value (abr::PlanBatch's thread-safety rules).
  abr::PlanBatch batch;
  std::vector<FleetAggregates> per_cell(cells);
  runner.for_each(num_shards, [&](size_t shard) {
    size_t begin = shard * cells / num_shards;
    size_t end = (shard + 1) * cells / num_shards;
    for (size_t c = begin; c < end; ++c) per_cell[c] = run_cell(c, videos, batch);
  });

  FleetAggregates total;
  for (const FleetAggregates& cell : per_cell) total.merge(cell);
  return total;
}

FleetAggregates FleetSimulator::run_cell(size_t cell,
                                         const std::vector<const media::EncodedVideo*>& videos,
                                         abr::PlanBatch& batch) const {
  WorkloadConfig workload = config_.workload;
  workload.num_videos = videos.size();
  const uint64_t cell_seed = core::ExperimentRunner::task_seed(config_.seed, cell);
  WorkloadGenerator gen(workload, cell_seed);

  // Bottleneck capacity: the generated trace carries a per-viewer-scale
  // mean; scale it to the cell's expected concurrency (Little's law over
  // the mean video duration) unless the config fixes the factor.
  double link_scale = config_.link_scale;
  if (link_scale == 0.0) {
    double mean_duration_s = 0.0;
    for (const media::EncodedVideo* v : videos) {
      mean_duration_s += static_cast<double>(v->num_chunks()) * v->chunk_duration_s();
    }
    mean_duration_s /= static_cast<double>(videos.size());
    link_scale = std::max(1.0, workload.arrival_rate_per_s * mean_duration_s);
  }
  const std::string cell_name = "fleet-cell-" + std::to_string(cell);
  net::ThroughputTrace trace = gen.make_trace(cell_name).scaled(link_scale, cell_name);

  // Fault realization. Every draw comes from its own salted stream off the
  // cell seed, so enabling faults never perturbs the workload (arrivals,
  // videos, policies are unchanged) and realizations are pure functions of
  // (config, cell) — identical across thread and shard counts. The fallback
  // bottleneck is derived from the *clean* cell trace: it is a different
  // physical link, so the primary's capacity faults do not apply to it.
  const FleetFaultConfig& faults = config_.faults;
  net::FaultPlan fault_plan;
  const net::FaultPlan* plan_ptr = nullptr;
  CellFailover failover;
  std::optional<net::ThroughputTrace> fallback_trace;
  std::optional<net::SharedLink> fallback_link;
  if (faults.cell_failure_fraction > 0.0) {
    util::Rng fail_rng(util::mix_seed(cell_seed, kCellFailSalt));
    if (fail_rng.chance(faults.cell_failure_fraction)) {
      const double window = faults.cell_failure_window_s > 0.0
                                ? faults.cell_failure_window_s
                                : workload.arrival_window_s;
      failover.at_s = fail_rng.uniform(0.0, window);
      fallback_trace.emplace(trace.scaled(faults.fallback_scale, cell_name + "-fallback"));
      fallback_link.emplace(*fallback_trace, /*recycle_ids=*/true);
      failover.fallback = &*fallback_link;
      failover.reconnect_delay_s = faults.reconnect_delay_s;
    }
  }
  if (!faults.trace_faults.empty()) {
    fault_plan = net::FaultPlan::random(faults.trace_faults,
                                        util::mix_seed(cell_seed, kTraceFaultSalt));
    if (!fault_plan.empty()) {
      trace = fault_plan.apply_to_trace(trace);
      plan_ptr = &fault_plan;
    }
  }

  net::SharedLink link(trace, /*recycle_ids=*/true);

  FleetAggregates agg;
  agg.cells = 1;
  agg.sessions_by_policy.assign(pool_specs_.size(), 0);
  agg.completed_by_policy.assign(pool_specs_.size(), 0);
  agg.abandoned_by_policy.assign(pool_specs_.size(), 0);
  if (failover.fallback != nullptr) agg.failed_cells = 1;  // counts the draw, not the hit
  const qoe::ChunkQualityParams qoe_params;

  // Session slots recycled across sessions, laid out as parallel arrays
  // (SoA): the event loop touches engines[] almost exclusively, so slot
  // scans stream over one pointer array instead of striding across
  // {engine, policy, arrival} triples. All vectors below grow to the cell's
  // peak concurrency and stay there.
  std::vector<std::unique_ptr<SessionEngine>> engines;  // constructed on first use
  std::vector<std::unique_ptr<AbrPolicy>> policies;
  std::vector<SessionArrival> arrivals;
  std::vector<size_t> free_slots;
  // Scratch rows for retire()'s per-session QoE fold (chunk_quality_row over
  // the session's records), sized to the longest session seen.
  std::vector<double> rec_vq, rec_stall, rec_prev, rec_q;
  // One policy pool per unique canonical spec (pool_specs_ order).
  std::vector<std::vector<std::unique_ptr<AbrPolicy>>> policy_pool(pool_specs_.size());
  uint64_t session_ordinal = 0;  // admission order, for per-session jitter tags

  // Admits the pending arrival on the link live at its instant.
  SessionArrival pending;
  bool have_arrival = gen.next(&pending);
  auto admit = [&](net::SharedLink& live) -> size_t {
    size_t idx;
    if (!free_slots.empty()) {
      idx = free_slots.back();
      free_slots.pop_back();
    } else {
      idx = engines.size();
      engines.emplace_back();
      policies.emplace_back();
      arrivals.emplace_back();
      // Release paths (retire) must not allocate in steady state, so the
      // free lists get their worst-case capacity (every slot released) here
      // in the growth phase.
      free_slots.reserve(engines.size());
      for (auto& pool : policy_pool) pool.reserve(engines.size());
    }
    arrivals[idx] = pending;
    const size_t pool_idx = mix_to_pool_[pending.policy_index];
    auto& pool = policy_pool[pool_idx];
    if (!pool.empty()) {
      policies[idx] = std::move(pool.back());
      pool.pop_back();
    } else {
      policies[idx] = abr::make_policy(pool_specs_[pool_idx]);
      if (config_.player.share_plan_tables) policies[idx]->attach_plan_batch(&batch);
    }
    const media::EncodedVideo& video = *videos[pending.video_index];
    if (engines[idx] == nullptr) {
      engines[idx] = std::make_unique<SessionEngine>(config_.player, video, live,
                                                     *policies[idx], kNoWeights, pending.start_s);
      engines[idx]->set_chunk_limit(pending.chunk_limit);
    } else {
      engines[idx]->reset(video, live, *policies[idx], kNoWeights, pending.start_s,
                          pending.chunk_limit);
    }
    // Stable jitter identity (admission order, decoupled from slot reuse)
    // and the live fault plan for RTT spikes (nullptr detaches).
    engines[idx]->set_session_tag(util::mix_seed(cell_seed, session_ordinal++));
    engines[idx]->set_fault_plan(plan_ptr);
    // Occupied slots are exactly the active sessions.
    agg.peak_concurrent = std::max(agg.peak_concurrent, engines.size() - free_slots.size());
    have_arrival = gen.next(&pending);
    return idx;
  };

  auto retire = [&](size_t idx) {
    const SessionEngine& engine = *engines[idx];
    const std::vector<ChunkRecord>& recs = engine.records();

    ++agg.sessions;
    agg.chunks += recs.size();
    const size_t pool_idx = mix_to_pool_[arrivals[idx].policy_index];
    ++agg.sessions_by_policy[pool_idx];
    // Typed outcome split: outage vs viewer abandonment vs full completion,
    // from the engine's cause instead of re-deriving it from record counts.
    switch (engine.outcome_cause()) {
      case OutcomeCause::kAbandoned:
        ++agg.abandoned;
        ++agg.abandoned_by_policy[pool_idx];
        break;
      case OutcomeCause::kNone:
        ++agg.completed_by_policy[pool_idx];
        break;
      case OutcomeCause::kTimeoutBudget:
        ++agg.timeout_outages;
        ++agg.outages;
        break;
      case OutcomeCause::kDeadLink:
        ++agg.outages;
        break;
    }
    agg.timeouts += engine.timeouts();
    agg.retries += engine.retries();
    if (engine.failovers() > 0) ++agg.failovers;
    if (engine.timeouts() > 0 || engine.failovers() > 0) {
      ++agg.disrupted_sessions;
      if (engine.outcome() != SessionOutcome::kOutage) ++agg.recovered_sessions;
    }
    if (!recs.empty()) {
      // SoA fold: gather the record fields into contiguous rows (prev is
      // the quality row shifted by one, first chunk self-seeded), one
      // chunk_quality_row kernel over the session, then sequential sums —
      // the same left-to-right accumulation as the scalar loop it replaces.
      const size_t n = recs.size();
      if (rec_vq.size() < n) {
        rec_vq.resize(n);
        rec_stall.resize(n);
        rec_prev.resize(n);
        rec_q.resize(n);
      }
      double bitrate_sum = 0.0;
      for (size_t i = 0; i < n; ++i) {
        rec_vq[i] = recs[i].visual_quality;
        rec_stall[i] = recs[i].rebuffer_s;
        bitrate_sum += recs[i].bitrate_kbps;
      }
      rec_prev[0] = rec_vq[0];
      std::copy(rec_vq.begin(), rec_vq.begin() + (n - 1), rec_prev.begin() + 1);
      util::kernels::chunk_quality_row(rec_vq.data(), rec_stall.data(), rec_prev.data(),
                                       n, qoe_params.beta_rebuf,
                                       qoe_params.rebuf_saturation,
                                       qoe_params.beta_switch, qoe_params.floor,
                                       rec_q.data());
      double mean_qoe = util::kernels::sum_row(rec_q.data(), n) / static_cast<double>(n);
      agg.session_qoe.add(mean_qoe);
      agg.qoe_sketch.add(mean_qoe);
      agg.session_bitrate_kbps.add(bitrate_sum / static_cast<double>(n));
      agg.session_rebuffer_s.add(engine.total_stall_s());
      agg.startup_delay_s.add(engine.startup_delay_s());
    }
    if (config_.on_session_done) config_.on_session_done(cell, arrivals[idx], engine);

    policy_pool[pool_idx].push_back(std::move(policies[idx]));
    free_slots.push_back(idx);
  };

  run_cell_loop(
      engines, &link, failover, "fleet cell " + std::to_string(cell),
      [&] { return have_arrival ? pending.start_s : kInf; }, admit, retire);
  return agg;
}

}  // namespace sensei::sim
