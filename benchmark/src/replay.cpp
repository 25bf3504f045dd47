#include "replay.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "abr/planner.h"
#include "abr/registry.h"
#include "core/runner.h"
#include "net/fault.h"
#include "net/shared_link.h"
#include "qoe/chunk_quality.h"
#include "sim/event_queue.h"
#include "sim/session_engine.h"
#include "util/kernels.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sensei::benchmark {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The salts fleet.cpp splits a cell seed with. Private to the library, so
// repeated here; the identity gate fails if they ever drift apart.
constexpr uint64_t kTraceFaultSalt = 0xFA01'7F4A'0000'0001ULL;
constexpr uint64_t kCellFailSalt = 0xFA01'7F4A'0000'0002ULL;

const std::vector<double> kNoWeights;

using Span = Ledger::Span;

// Forwards every AbrPolicy call and times decide() under `layer`.
class TimedPolicy final : public sim::AbrPolicy {
 public:
  TimedPolicy(std::unique_ptr<sim::AbrPolicy> inner, Layer layer, Ledger& ledger)
      : inner_(std::move(inner)), layer_(layer), ledger_(ledger) {}

  const char* name() const override { return inner_->name(); }
  void begin_session(const media::EncodedVideo& video) override { inner_->begin_session(video); }
  sim::AbrDecision decide(const sim::AbrObservation& obs) override {
    Span span(ledger_, layer_);
    return inner_->decide(obs);
  }
  void attach_plan_batch(abr::PlanBatch* batch) override { inner_->attach_plan_batch(batch); }

 private:
  std::unique_ptr<sim::AbrPolicy> inner_;
  Layer layer_;
  Ledger& ledger_;
};

// The decide layer of a canonical registry spec: its name, plus its
// planner where it has one ("fugu:...,planner=vi,..." -> fugu_vi).
Layer decide_layer(const std::string& canonical_spec) {
  abr::PolicySpec spec = abr::PolicySpec::parse(canonical_spec);
  std::string label = spec.name;
  std::replace(label.begin(), label.end(), '-', '_');
  if (const std::string* planner = spec.find("planner")) label += "_" + *planner;
  const std::string name = "abr.decide." + label;
  for (size_t l = kDecideBba; l <= kDecideSenseiFuguDp; ++l) {
    if (name == layer_name(static_cast<Layer>(l))) return static_cast<Layer>(l);
  }
  throw std::invalid_argument("benchmark: no decide layer for policy " + canonical_spec);
}

Layer step_layer(sim::SessionEngine::State state) {
  switch (state) {
    case sim::SessionEngine::State::kRequesting: return kStepRequesting;
    case sim::SessionEngine::State::kRtt: return kStepRtt;
    case sim::SessionEngine::State::kTransferring: return kStepTransferring;
    case sim::SessionEngine::State::kArrived: return kStepArrived;
    case sim::SessionEngine::State::kTimedOut: return kStepTimedOut;
    case sim::SessionEngine::State::kBackoff: return kStepBackoff;
    case sim::SessionEngine::State::kRetrying: return kStepRetrying;
    case sim::SessionEngine::State::kDone:
    case sim::SessionEngine::State::kOutage: break;
  }
  throw std::logic_error("benchmark: stepping a finished session");
}

// SessionEngine::advance_to(t), spelled as its step() loop so each
// transition is timed under the state it leaves.
void traced_advance_to(sim::SessionEngine& engine, double t, Ledger& ledger) {
  while (!engine.done() && engine.next_event_time() <= t) {
    Span span(ledger, step_layer(engine.state()));
    engine.step();
  }
}

// One cell of FleetSimulator::run_cell, statement for statement, with a
// span around every call into a layer. What is not inside a nested span is
// the loop's own glue, booked to the enclosing sim.cell span.
sim::FleetAggregates replay_cell(const sim::FleetConfig& config,
                                 const std::vector<std::string>& pool_specs,
                                 const std::vector<size_t>& mix_to_pool,
                                 const std::vector<Layer>& pool_layers, size_t cell,
                                 const std::vector<const media::EncodedVideo*>& videos,
                                 Ledger& ledger, TraceCounters& counters) {
  // Declared first so it outlives every policy that points at it.
  abr::PlanBatch batch;

  std::optional<Span> setup_span(std::in_place, ledger, kCellSetup);
  sim::WorkloadConfig workload = config.workload;
  workload.num_videos = videos.size();
  const uint64_t cell_seed = core::ExperimentRunner::task_seed(config.seed, cell);
  sim::WorkloadGenerator gen(workload, cell_seed);

  double link_scale = config.link_scale;
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

  const sim::FleetFaultConfig& faults = config.faults;
  net::FaultPlan fault_plan;
  const net::FaultPlan* plan_ptr = nullptr;
  double fail_at_s = kInf;
  std::optional<net::ThroughputTrace> fallback_trace;
  std::optional<net::SharedLink> fallback_link;
  if (faults.cell_failure_fraction > 0.0) {
    util::Rng fail_rng(util::mix_seed(cell_seed, kCellFailSalt));
    if (fail_rng.chance(faults.cell_failure_fraction)) {
      const double window = faults.cell_failure_window_s > 0.0 ? faults.cell_failure_window_s
                                                               : workload.arrival_window_s;
      fail_at_s = fail_rng.uniform(0.0, window);
      fallback_trace.emplace(trace.scaled(faults.fallback_scale, cell_name + "-fallback"));
      fallback_link.emplace(*fallback_trace, /*recycle_ids=*/true);
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
  net::SharedLink* live = &link;

  sim::FleetAggregates agg;
  agg.cells = 1;
  agg.sessions_by_policy.assign(pool_specs.size(), 0);
  agg.completed_by_policy.assign(pool_specs.size(), 0);
  agg.abandoned_by_policy.assign(pool_specs.size(), 0);
  if (fail_at_s < kInf) agg.failed_cells = 1;
  const qoe::ChunkQualityParams qoe_params;

  std::vector<std::unique_ptr<sim::SessionEngine>> engines;
  std::vector<std::unique_ptr<sim::AbrPolicy>> policies;
  std::vector<sim::SessionArrival> arrivals;
  std::vector<size_t> free_slots;
  std::vector<double> rec_vq, rec_stall, rec_prev, rec_q;
  std::vector<std::vector<std::unique_ptr<sim::AbrPolicy>>> policy_pool(pool_specs.size());
  sim::EventQueue events;
  std::vector<size_t> transfer_owner;
  size_t active = 0;
  uint64_t session_ordinal = 0;
  setup_span.reset();

  auto admit = [&](const sim::SessionArrival& a) -> size_t {
    Span span(ledger, kAdmit);
    size_t idx;
    if (!free_slots.empty()) {
      idx = free_slots.back();
      free_slots.pop_back();
    } else {
      idx = engines.size();
      engines.emplace_back();
      policies.emplace_back();
      arrivals.emplace_back();
      free_slots.reserve(engines.size());
      for (auto& pool : policy_pool) pool.reserve(engines.size());
    }
    arrivals[idx] = a;
    const size_t pool_idx = mix_to_pool[a.policy_index];
    auto& pool = policy_pool[pool_idx];
    if (!pool.empty()) {
      policies[idx] = std::move(pool.back());
      pool.pop_back();
    } else {
      policies[idx] = std::make_unique<TimedPolicy>(abr::make_policy(pool_specs[pool_idx]),
                                                    pool_layers[pool_idx], ledger);
    }
    if (config.player.share_plan_tables) policies[idx]->attach_plan_batch(&batch);
    const media::EncodedVideo& video = *videos[a.video_index];
    if (engines[idx] == nullptr) {
      engines[idx] = std::make_unique<sim::SessionEngine>(config.player, video, *live,
                                                          *policies[idx], kNoWeights, a.start_s);
      engines[idx]->set_chunk_limit(a.chunk_limit);
    } else {
      engines[idx]->reset(video, *live, *policies[idx], kNoWeights, a.start_s, a.chunk_limit);
    }
    engines[idx]->set_session_tag(util::mix_seed(cell_seed, session_ordinal++));
    engines[idx]->set_fault_plan(plan_ptr);
    ++active;
    agg.peak_concurrent = std::max(agg.peak_concurrent, active);
    return idx;
  };

  auto retire = [&](size_t idx) {
    Span span(ledger, kRetire);
    const sim::SessionEngine& engine = *engines[idx];
    const std::vector<sim::ChunkRecord>& recs = engine.records();
    ++agg.sessions;
    agg.chunks += recs.size();
    const size_t pool_idx = mix_to_pool[arrivals[idx].policy_index];
    ++agg.sessions_by_policy[pool_idx];
    switch (engine.outcome_cause()) {
      case sim::OutcomeCause::kAbandoned:
        ++agg.abandoned;
        ++agg.abandoned_by_policy[pool_idx];
        break;
      case sim::OutcomeCause::kNone:
        ++agg.completed_by_policy[pool_idx];
        break;
      case sim::OutcomeCause::kTimeoutBudget:
        ++agg.timeout_outages;
        ++agg.outages;
        break;
      case sim::OutcomeCause::kDeadLink:
        ++agg.outages;
        break;
    }
    agg.timeouts += engine.timeouts();
    agg.retries += engine.retries();
    if (engine.failovers() > 0) ++agg.failovers;
    if (engine.timeouts() > 0 || engine.failovers() > 0) {
      ++agg.disrupted_sessions;
      if (engine.outcome() != sim::SessionOutcome::kOutage) ++agg.recovered_sessions;
    }
    if (!recs.empty()) {
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
      util::kernels::chunk_quality_row(rec_vq.data(), rec_stall.data(), rec_prev.data(), n,
                                       qoe_params.beta_rebuf, qoe_params.rebuf_saturation,
                                       qoe_params.beta_switch, qoe_params.floor, rec_q.data());
      double mean_qoe = util::kernels::sum_row(rec_q.data(), n) / static_cast<double>(n);
      agg.session_qoe.add(mean_qoe);
      agg.qoe_sketch.add(mean_qoe);
      agg.session_bitrate_kbps.add(bitrate_sum / static_cast<double>(n));
      agg.session_rebuffer_s.add(engine.total_stall_s());
      agg.startup_delay_s.add(engine.startup_delay_s());
    }
    policy_pool[pool_idx].push_back(std::move(policies[idx]));
    free_slots.push_back(idx);
    --active;
  };

  auto update = [&](size_t idx, double time) {
    Span span(ledger, kEventQueueUpdate);
    events.update(idx, time);
  };

  auto next_arrival = [&](sim::SessionArrival* out) {
    Span span(ledger, kWorkloadNext);
    return gen.next(out);
  };

  auto record_join = [&](size_t idx) {
    if (engines[idx]->state() != sim::SessionEngine::State::kTransferring) return;
    size_t id = engines[idx]->transfer_id();
    if (transfer_owner.size() <= id) transfer_owner.resize(id + 1, 0);
    transfer_owner[id] = idx;
  };

  sim::SessionArrival pending;
  bool have_pending = next_arrival(&pending);
  double prev_t = -kInf;
  bool prev_was_noop = false;
  while (active > 0 || have_pending) {
    ++counters.loop_iterations;
    double next_completion;
    {
      Span span(ledger, kLinkNextCompletion);
      next_completion = live->next_completion_s();
    }
    double t = std::min(events.min_time(), next_completion);
    if (have_pending) t = std::min(t, pending.start_s);
    t = std::min(t, fail_at_s);

    if (t == kInf) {
      for (size_t idx = 0; idx < engines.size(); ++idx) {
        if (engines[idx] != nullptr && policies[idx] != nullptr && !engines[idx]->done()) {
          engines[idx]->fail_transfer();
          retire(idx);
        }
      }
      break;
    }

    size_t processed = 0;
    {
      Span span(ledger, kLinkAdvanceTo);
      live->advance_to(t);
    }
    {
      // Draining: the sorted completions, each handed to its session, then
      // the clear that frees their ids. One span, so the two near-empty
      // link calls are not timed alone.
      Span drain(ledger, kLinkDrain);
      for (const net::SharedLink::Completion& completion : live->completions_sorted()) {
        ++processed;
        size_t idx = transfer_owner[completion.id];
        {
          Span span(ledger, kCompleteTransfer);
          engines[idx]->complete_transfer(completion.finish_s);
        }
        if (engines[idx]->done()) {
          update(idx, kInf);
          retire(idx);
        } else {
          update(idx, engines[idx]->next_event_time());
        }
      }
      live->clear_completions();
    }

    while (have_pending && pending.start_s <= t) {
      size_t idx = admit(pending);
      update(idx, engines[idx]->next_event_time());
      have_pending = next_arrival(&pending);
      ++processed;
    }

    while (!events.empty() && events.min_time() <= t) {
      size_t idx = events.min_index();
      traced_advance_to(*engines[idx], t, ledger);
      ++processed;
      update(idx, engines[idx]->next_event_time());
      if (engines[idx]->done()) {
        retire(idx);
      } else {
        record_join(idx);
      }
    }

    if (fail_at_s <= t) {
      ++processed;
      for (size_t idx = 0; idx < engines.size(); ++idx) {
        if (engines[idx] != nullptr && policies[idx] != nullptr && !engines[idx]->done()) {
          {
            Span span(ledger, kRehome);
            engines[idx]->rehome(*fallback_link, faults.reconnect_delay_s, t);
          }
          update(idx, engines[idx]->next_event_time());
        }
      }
      live = &*fallback_link;
      fail_at_s = kInf;
    }

    if (processed == 0 && prev_was_noop && t == prev_t) {
      throw std::runtime_error("benchmark: fleet replica livelocked in cell " +
                               std::to_string(cell));
    }
    prev_was_noop = processed == 0;
    prev_t = t;
  }

  counters.chunks += agg.chunks;
  counters.vi_tables_created += batch.num_vi_tables();
  counters.plan_bytes_max = std::max<uint64_t>(counters.plan_bytes_max, batch.table_bytes());
  return agg;
}

// Runs the same work untraced and traced back to back, in the given order,
// and records both wall times with the traced root's interval and spans.
// `traced` returns {result, interval ticks, spans}. Pairing at this grain
// lets the machine's drift cancel between the two runs.
template <class Untraced, class Traced>
auto run_pair(bool untraced_first, Untraced&& untraced, Traced&& traced,
              TraceCounters& counters) {
  TraceCounters::Root root;
  auto time_untraced = [&] {
    const double t0 = now_ns();
    untraced();
    root.untraced_ns = now_ns() - t0;
  };
  if (untraced_first) time_untraced();
  const double t0 = now_ns();
  auto [out, ticks, spans] = traced();
  root.traced_ns = now_ns() - t0;
  if (!untraced_first) time_untraced();
  root.ticks = ticks;
  root.spans = spans;
  counters.roots.push_back(root);
  return out;
}

// Opens the root span around `body` and measures it for run_pair.
template <class Body>
auto traced_root(Ledger& ledger, Layer root, Body&& body) {
  const uint64_t spans_before = ledger.spans_closed();
  const uint64_t start = ticks();
  auto out = [&] {
    Span span(ledger, root);
    return body();
  }();
  return std::make_tuple(std::move(out), ticks() - start, ledger.spans_closed() - spans_before);
}

}  // namespace

sim::FleetAggregates replay_fleet(const sim::FleetConfig& config,
                                  const std::vector<const media::EncodedVideo*>& videos,
                                  Ledger& ledger, TraceCounters& counters) {
  // The pool layout FleetSimulator derives from the mix: unique canonical
  // specs in first-occurrence order, and each mix entry's pool.
  const sim::FleetSimulator fleet(config);
  const std::vector<std::string>& pool_specs = fleet.policy_specs();
  sim::WorkloadConfig probe_config = config.workload;
  probe_config.num_videos = 1;
  const sim::WorkloadGenerator probe(probe_config, 0);
  std::vector<size_t> mix_to_pool;
  for (const std::string& spec : probe.canonical_policy_specs()) {
    mix_to_pool.push_back(static_cast<size_t>(
        std::find(pool_specs.begin(), pool_specs.end(), spec) - pool_specs.begin()));
  }
  std::vector<Layer> pool_layers;
  for (const std::string& spec : pool_specs) pool_layers.push_back(decide_layer(spec));

  Ledger disabled(false);
  TraceCounters unused;
  sim::FleetAggregates total;
  for (size_t cell = 0; cell < config.num_cells; ++cell) {
    auto untraced = [&] {
      return replay_cell(config, pool_specs, mix_to_pool, pool_layers, cell, videos, disabled,
                         unused);
    };
    auto traced = [&] {
      return traced_root(ledger, kRootCell, [&] {
        return replay_cell(config, pool_specs, mix_to_pool, pool_layers, cell, videos, ledger,
                           counters);
      });
    };
    total.merge(run_pair(cell % 2 == 0, untraced, traced, counters));
  }
  return total;
}

std::vector<std::vector<core::Experiments::RunResult>> replay_grids(
    const std::vector<std::string>& specs, const std::vector<bool>& weighted,
    const std::vector<media::EncodedVideo>& videos,
    const std::vector<net::ThroughputTrace>& traces,
    const std::vector<std::vector<double>>& weights, Ledger& ledger, TraceCounters& counters) {
  std::vector<Layer> layers;
  std::vector<core::Experiments::PolicyFactory> factories;
  for (const std::string& spec : specs) {
    layers.push_back(decide_layer(abr::PolicyRegistry::instance().canonical_string(spec)));
    factories.push_back(core::Experiments::policy_factory(spec));
  }
  const std::vector<double> none;
  Ledger disabled(false);
  std::vector<std::vector<core::Experiments::RunResult>> out(
      specs.size(), std::vector<core::Experiments::RunResult>(videos.size() * traces.size()));
  for (size_t i = 0; i < videos.size() * traces.size(); ++i) {
    const size_t v = i / traces.size();
    const size_t t = i % traces.size();
    for (size_t p = 0; p < specs.size(); ++p) {
      const std::vector<double>& w = weighted[p] ? weights[v] : none;
      // Experiments::run: a default Player streams through one engine, and
      // the oracle scores the rendered session.
      auto session = [&](Ledger& l) {
        TimedPolicy policy(factories[p](), layers[p], l);
        core::Experiments::RunResult run;
        sim::SessionEngine engine(sim::PlayerConfig(), videos[v], traces[t], policy, w);
        while (!engine.done()) {
          Span step(l, step_layer(engine.state()));
          engine.step();
        }
        run.session = engine.take_result();
        Span score(l, kOracleScore);
        run.true_qoe = core::Experiments::oracle().score(run.session.to_rendered(videos[v]));
        return run;
      };
      out[p][i] = run_pair(
          (i + p) % 2 == 0, [&] { return session(disabled); },
          [&] { return traced_root(ledger, kRootSession, [&] { return session(ledger); }); },
          counters);
      counters.chunks += out[p][i].session.chunks().size();
    }
  }
  return out;
}

void set_span_costs(Ledger& ledger, const TraceCounters& counters) {
  // The median over blocks drops blocks a burst of machine noise hit.
  constexpr size_t kBlocks = 16;
  const size_t n = counters.roots.size();
  std::vector<double> per_span;
  for (size_t b = 0; b < kBlocks && b < n; ++b) {
    double extra_ns = 0.0;
    uint64_t spans = 0;
    for (size_t r = b * n / kBlocks; r < (b + 1) * n / kBlocks; ++r) {
      extra_ns += counters.roots[r].traced_ns - counters.roots[r].untraced_ns;
      spans += counters.roots[r].spans;
    }
    if (spans > 0) per_span.push_back(extra_ns / ns_per_tick() / static_cast<double>(spans));
  }
  const double full = std::max(0.0, util::percentile(per_span, 50.0));
  // What a span costs in place exceeds what the calibration loop measures:
  // each of its two clock reads disturbs the code on both sides of it, so
  // half of the excess falls inside the span's interval and half outside.
  const Ledger::Costs loop = Ledger::calibrate();
  const double inner = loop.inner + 0.5 * std::max(0.0, full - loop.full);
  ledger.set_costs({std::min(inner, full), full});
}

std::vector<Metric> per_layer_metrics(const Ledger& ledger, const TraceCounters& counters,
                                      double library_ns) {
  const double tick_ns = ns_per_tick();
  double total_self_ns = 0.0;
  for (size_t l = 0; l < kLayerCount; ++l) {
    total_self_ns += ledger.self_ticks(static_cast<Layer>(l)) * tick_ns;
  }
  auto self_ns = [&](Layer l) { return ledger.self_ticks(l) * tick_ns; };
  auto calls = [&](Layer l) { return static_cast<double>(ledger.calls(l)); };
  auto share = [&](Layer l) { return total_self_ns > 0.0 ? self_ns(l) / total_self_ns : 0.0; };
  auto per_chunk = [&](double count) {
    return counters.chunks > 0 ? count / static_cast<double>(counters.chunks) : 0.0;
  };

  std::vector<Metric> out;
  auto timed = [&](Layer l) {
    const std::string name = layer_name(l);
    out.push_back({name + ".calls", "count", calls(l)});
    out.push_back({name + ".ns_per_call", "ns", calls(l) > 0 ? self_ns(l) / calls(l) : 0.0});
    out.push_back({name + ".share", "ratio", share(l)});
  };

  for (Layer l : {kLinkNextCompletion, kLinkAdvanceTo, kLinkDrain, kEventQueueUpdate, kStepRtt,
                  kStepArrived, kCompleteTransfer}) {
    timed(l);
  }
  double steps = 0.0;
  for (Layer l : {kStepRequesting, kStepRtt, kStepTransferring, kStepArrived, kStepTimedOut,
                  kStepBackoff, kStepRetrying}) {
    steps += calls(l);
  }
  out.push_back({"sim.loop.iterations_per_chunk", "count/chunk",
                 per_chunk(static_cast<double>(counters.loop_iterations))});
  out.push_back({"sim.event_queue.updates_per_chunk", "count/chunk",
                 per_chunk(calls(kEventQueueUpdate))});
  out.push_back({"sim.session_engine.steps_per_chunk", "count/chunk", per_chunk(steps)});

  for (size_t l = kDecideBba; l <= kDecideSenseiFuguDp; ++l) {
    const Layer layer = static_cast<Layer>(l);
    const std::string name = layer_name(layer);
    std::vector<double> ns;
    ns.reserve(ledger.samples(layer).size());
    for (uint64_t raw : ledger.samples(layer)) {
      ns.push_back((static_cast<double>(raw) - ledger.costs().inner) * tick_ns);
    }
    out.push_back({name + ".calls", "count", calls(layer)});
    out.push_back({name + ".ns_p50", "ns", util::percentile(ns, 50.0)});
    out.push_back({name + ".ns_p99", "ns", util::percentile(ns, 99.0)});
    out.push_back({name + ".share", "ratio", share(layer)});
  }
  const double vi_decides = calls(kDecideFuguVi);
  out.push_back({"abr.plan_batch.tables_created", "count",
                 static_cast<double>(counters.vi_tables_created)});
  out.push_back({"abr.plan_batch.hit_rate", "ratio",
                 vi_decides > 0.0
                     ? 1.0 - static_cast<double>(counters.vi_tables_created) / vi_decides
                     : 0.0});
  out.push_back({"abr.plan_batch.bytes_max", "bytes",
                 static_cast<double>(counters.plan_bytes_max)});

  for (Layer l : {kStepRequesting, kStepTransferring, kStepTimedOut, kStepBackoff, kStepRetrying,
                  kRehome, kCellSetup, kAdmit, kRetire, kWorkloadNext, kOracleScore}) {
    timed(l);
  }

  // A root's host time is its interval less the cost of every span closed
  // in it, its own included.
  const bool cells = ledger.calls(kRootCell) > 0;
  std::vector<double> cell_ms, session_us;
  double untraced_ns = 0.0, traced_ns = 0.0;
  for (const TraceCounters::Root& root : counters.roots) {
    untraced_ns += root.untraced_ns;
    traced_ns += root.traced_ns;
    const double ns = (static_cast<double>(root.ticks) -
                       static_cast<double>(root.spans) * ledger.costs().full) *
                      tick_ns;
    if (cells) {
      cell_ms.push_back(ns / 1e6);
    } else {
      session_us.push_back(ns / 1e3);
    }
  }
  out.push_back({"sim.cell.host_ms_p50", "ms", util::percentile(cell_ms, 50.0)});
  out.push_back({"sim.cell.host_ms_p90", "ms", util::percentile(cell_ms, 90.0)});
  out.push_back({"sim.session.host_us_p50", "us", util::percentile(session_us, 50.0)});
  out.push_back({"sim.session.host_us_p95", "us", util::percentile(session_us, 95.0)});

  const double glue_ns = self_ns(kRootCell) + self_ns(kRootSession);
  out.push_back({"trace.unattributed_share", "ratio",
                 total_self_ns > 0.0 ? glue_ns / total_self_ns : 0.0});
  out.push_back({"trace.overhead_pct", "%", 100.0 * (traced_ns - untraced_ns) / untraced_ns});
  out.push_back({"trace.attributed_pct", "%", 100.0 * total_self_ns / library_ns});
  return out;
}

}  // namespace sensei::benchmark
