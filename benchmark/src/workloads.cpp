#include "workloads.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "bench_util.h"
#include "core/experiments.h"
#include "core/runner.h"
#include "core/sensei.h"
#include "media/dataset.h"
#include "net/fault.h"
#include "net/trace_gen.h"
#include "replay.h"
#include "sim/fleet.h"
#include "util/rng.h"
#include "util/stats.h"

namespace sensei::benchmark {

namespace {

class Fnv {
 public:
  void add(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double x) { add(&x, sizeof(x)); }
  void add(uint64_t x) { add(&x, sizeof(x)); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
    return buf;
  }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

// Appends " key=value" with the double in exact hex-float form.
void put(std::string& row, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %s=%a", key, value);
  row += buf;
}

void put(std::string& row, const char* key, size_t value) {
  row += ' ';
  row += key;
  row += '=';
  row += std::to_string(value);
}

void put(std::string& row, const char* key, const std::vector<size_t>& values) {
  row += ' ';
  row += key;
  row += "=[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) row += ',';
    row += std::to_string(values[i]);
  }
  row += ']';
}

void put(std::string& row, const char* key, const util::MergeableAccumulator& acc) {
  const std::string k = key;
  put(row, (k + ".n").c_str(), acc.count());
  put(row, (k + ".mean").c_str(), acc.mean());
  put(row, (k + ".var").c_str(), acc.variance());
  put(row, (k + ".min").c_str(), acc.min());
  put(row, (k + ".max").c_str(), acc.max());
}

// Every field of the aggregates and the sketch at every percentile: what
// the identity gate and the repeat checks compare.
std::string fleet_row(const sim::FleetAggregates& a) {
  std::string row = "fleet";
  put(row, "cells", a.cells);
  put(row, "sessions", a.sessions);
  put(row, "chunks", a.chunks);
  put(row, "outages", a.outages);
  put(row, "abandoned", a.abandoned);
  put(row, "sessions_by_policy", a.sessions_by_policy);
  put(row, "completed_by_policy", a.completed_by_policy);
  put(row, "abandoned_by_policy", a.abandoned_by_policy);
  put(row, "timeouts", a.timeouts);
  put(row, "retries", a.retries);
  put(row, "timeout_outages", a.timeout_outages);
  put(row, "failovers", a.failovers);
  put(row, "failed_cells", a.failed_cells);
  put(row, "disrupted", a.disrupted_sessions);
  put(row, "recovered", a.recovered_sessions);
  put(row, "peak_concurrent", a.peak_concurrent);
  put(row, "qoe", a.session_qoe);
  put(row, "bitrate", a.session_bitrate_kbps);
  put(row, "rebuffer", a.session_rebuffer_s);
  put(row, "startup", a.startup_delay_s);
  put(row, "sketch.n", a.qoe_sketch.count());
  for (int k = 0; k <= 100; ++k) {
    const std::string key = "q" + std::to_string(k);
    put(row, key.c_str(), a.qoe_sketch.quantile(k / 100.0));
  }
  return row;
}

size_t total(const std::vector<size_t>& v) {
  size_t s = 0;
  for (size_t x : v) s += x;
  return s;
}

std::vector<std::string> fleet_violations(const sim::FleetAggregates& a) {
  std::vector<std::string> out;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) out.push_back(what);
  };
  expect(a.sessions == total(a.sessions_by_policy), "sessions != sum(sessions_by_policy)");
  expect(a.sessions == total(a.completed_by_policy) + total(a.abandoned_by_policy) + a.outages,
         "sessions != sum(completed) + sum(abandoned) + outages");
  expect(a.abandoned == total(a.abandoned_by_policy), "abandoned != sum(abandoned_by_policy)");
  expect(a.timeout_outages <= a.outages, "timeout_outages > outages");
  expect(a.recovered_sessions <= a.disrupted_sessions, "recovered > disrupted");
  expect(a.qoe_sketch.count() == a.session_qoe.count(), "sketch count != accumulator count");
  expect(a.session_bitrate_kbps.count() == a.session_qoe.count() &&
             a.session_rebuffer_s.count() == a.session_qoe.count() &&
             a.startup_delay_s.count() == a.session_qoe.count(),
         "per-session accumulator counts differ");
  return out;
}

// First differing field of two rows, for a readable gate failure.
std::string row_diff(const std::string& a, const std::string& b) {
  std::istringstream sa(a), sb(b);
  std::string fa, fb;
  while (true) {
    bool ga = static_cast<bool>(sa >> fa);
    bool gb = static_cast<bool>(sb >> fb);
    if (!ga && !gb) return "rows equal";
    if (!ga || !gb || fa != fb) return (ga ? fa : "<end>") + " vs " + (gb ? fb : "<end>");
  }
}

// ---------------------------------------------------------------------------
// Fleet workloads: FleetSimulator over bench_fleet's four 120 s videos.
// ---------------------------------------------------------------------------

// The timed batch is `slices` fleets of `slice_cells` cells each, fleet k
// seeded with task_seed(seed, k). The warm-up and traced subsets are the
// first cells of fleet 0.
struct FleetShape {
  size_t slices;
  size_t slice_cells;
  size_t warmup_cells;
  size_t trace_cells;
};

class FleetWorkload final : public Workload {
 public:
  FleetWorkload(sim::FleetConfig base, FleetShape shape)
      : base_(std::move(base)), shape_(shape) {}

  void setup() override {
    const media::Encoder encoder;
    const media::Genre genres[] = {media::Genre::kSports, media::Genre::kNature,
                                   media::Genre::kGaming, media::Genre::kAnimation};
    videos_.clear();
    for (size_t i = 0; i < 4; ++i) {
      videos_.push_back(encoder.encode(
          media::SourceVideo::generate("Fleet" + std::to_string(i), genres[i], 120.0)));
    }
    video_ptrs_.clear();
    for (const auto& v : videos_) {
      if (v.chunk_duration_s() != videos_[0].chunk_duration_s())
        throw std::logic_error("fleet videos must share one chunk duration");
      video_ptrs_.push_back(&v);
    }
    // Validates the whole config (every policy spec included) up front.
    sim::FleetSimulator probe(config(0, shape_.slice_cells));
    batch_ = sim::FleetAggregates();
    folded_ = 0;
  }

  PassResult warmup(const core::ExperimentRunner& runner) override {
    return summarize(sim::FleetSimulator(config(0, shape_.warmup_cells)).run(video_ptrs_, runner));
  }

  size_t num_slices() const override { return shape_.slices; }

  PassResult run_slice(size_t k, const core::ExperimentRunner& runner) override {
    const sim::FleetAggregates a =
        sim::FleetSimulator(config(k, shape_.slice_cells)).run(video_ptrs_, runner);
    if (k == folded_) {
      batch_.merge(a);
      ++folded_;
    }
    return summarize(a);
  }

  PassResult batch() override {
    if (folded_ != shape_.slices) throw std::logic_error("the timed batch is incomplete");
    return summarize(batch_);
  }

  TraceReport trace(const core::ExperimentRunner& runner) override {
    const sim::FleetConfig cfg = config(0, shape_.trace_cells);
    const core::ExperimentRunner serial(1);
    const double t0 = now_ns();
    const sim::FleetAggregates untraced = sim::FleetSimulator(cfg).run(video_ptrs_, serial);
    const double library_ns = now_ns() - t0;

    Ledger ledger;
    TraceCounters counters;
    const sim::FleetAggregates replica = replay_fleet(cfg, video_ptrs_, ledger, counters);
    set_span_costs(ledger, counters);

    const sim::FleetAggregates reference = sim::FleetSimulator(cfg).run(video_ptrs_, runner);
    TraceReport report;
    report.sessions = replica.sessions;
    report.row = fleet_row(reference);
    const std::string replica_row = fleet_row(replica);
    if (replica_row != report.row) {
      report.failures.push_back("traced replica != FleetSimulator::run: " +
                                row_diff(replica_row, report.row));
    }
    if (fleet_row(untraced) != report.row) {
      report.failures.push_back("1-thread trace subset differs: " +
                                row_diff(fleet_row(untraced), report.row));
    }
    report.metrics = per_layer_metrics(ledger, counters, library_ns);
    return report;
  }

 private:
  sim::FleetConfig config(size_t slice, size_t cells) const {
    sim::FleetConfig cfg = base_;
    cfg.seed = core::ExperimentRunner::task_seed(base_.seed, slice);
    cfg.num_cells = cells;
    return cfg;
  }

  PassResult summarize(const sim::FleetAggregates& a) const {
    PassResult r;
    r.sessions = a.sessions;
    r.qoe_mean = a.session_qoe.mean();
    r.qoe_p10 = a.qoe_sketch.quantile(0.1);
    const double stall_s =
        a.session_rebuffer_s.mean() * static_cast<double>(a.session_rebuffer_s.count());
    const double media_s = static_cast<double>(a.chunks) * videos_[0].chunk_duration_s();
    r.rebuffer_ratio = media_s > 0.0 ? stall_s / media_s : 0.0;
    r.served_rate = a.sessions > 0 ? static_cast<double>(a.sessions - a.outages) /
                                         static_cast<double>(a.sessions)
                                   : 1.0;
    r.recovery_rate = a.disrupted_sessions > 0 ? static_cast<double>(a.recovered_sessions) /
                                                     static_cast<double>(a.disrupted_sessions)
                                               : 1.0;
    r.row = fleet_row(a);
    r.violations = fleet_violations(a);
    return r;
  }

  sim::FleetConfig base_;
  FleetShape shape_;
  std::vector<media::EncodedVideo> videos_;
  std::vector<const media::EncodedVideo*> video_ptrs_;
  sim::FleetAggregates batch_;
  size_t folded_ = 0;
};

// bench_fleet's Poisson fleet over a 600 s arrival window; the default mix
// is WorkloadConfig's {bba .3, rate_based .2, whittle .3, fugu:planner=vi .2}.
sim::FleetConfig fleet_base(uint64_t seed, double rate,
                            std::vector<sim::PolicyMixEntry> mix =
                                sim::WorkloadConfig().policy_mix) {
  sim::FleetConfig cfg;
  cfg.seed = seed;
  cfg.workload.arrivals = sim::ArrivalProcess::kPoisson;
  cfg.workload.arrival_rate_per_s = rate;
  cfg.workload.arrival_window_s = 600.0;
  cfg.workload.policy_mix = std::move(mix);
  return cfg;
}

// bench_resilience's session recovery and unit fault load, at intensity 2,
// plus hard failure of a quarter of the cells.
void add_faults(sim::FleetConfig& cfg) {
  sim::ResilienceConfig& res = cfg.player.resilience;
  res.request_timeout_s = 8.0;
  res.max_retries = 3;
  res.backoff_base_s = 0.5;
  res.backoff_factor = 2.0;
  res.backoff_max_s = 4.0;
  res.backoff_jitter_frac = 0.1;
  res.jitter_seed = 4242;
  res.retry_lower_rung = true;
  net::RandomFaultSpec unit;
  unit.horizon_s = 400.0;
  unit.mean_outages = 3.0;
  unit.outage_mean_duration_s = 4.0;
  unit.mean_collapses = 2.0;
  unit.collapse_mean_duration_s = 25.0;
  unit.collapse_factor = 0.15;
  unit.mean_rtt_spikes = 3.0;
  unit.rtt_spike_mean_duration_s = 12.0;
  unit.rtt_spike_extra_s = 0.8;
  cfg.faults.trace_faults = unit.scaled(2.0);
  cfg.faults.cell_failure_fraction = 0.25;
  cfg.faults.reconnect_delay_s = 2.0;
  cfg.faults.fallback_scale = 0.5;
}

// ---------------------------------------------------------------------------
// paper_sweep: the Fig. 12b evaluation grid on dedicated links.
// ---------------------------------------------------------------------------

// The timed batch is the grid of every Table-1 video over every scaled
// trace, in `slices` slices: slice k runs every video over each scaled
// trace whose index is k modulo `slices`, so that every slice spans all
// videos, all traces and the whole bandwidth range. The warm-up and traced
// subsets are the first videos over every scaled trace.
struct PaperShape {
  size_t scales;  // bandwidth scales per trace
  size_t slices;
  size_t warmup_videos;
  size_t trace_videos;
};

// A grid's inputs: videos, with their SENSEI weights, by scaled traces.
struct PaperInputs {
  std::vector<media::EncodedVideo> videos;
  std::vector<std::vector<double>> weights;
  std::vector<net::ThroughputTrace> traces;
};

// Policy order matters: the tally reads fugu at 1 and sensei-fugu at 2.
const char* const kPaperSpecs[] = {"bba", "fugu:planner=dp", "sensei-fugu:planner=dp"};
constexpr size_t kPaperPolicies = 3;
constexpr size_t kFugu = 1;
constexpr size_t kSenseiFugu = 2;

using Grid = std::vector<core::Experiments::RunResult>;

// Folds policies' grids, one at a time, into a PassResult, so a pass never
// holds more than one grid of sessions. Every grid's videos must start at
// the first Table-1 video.
class PaperTally {
 public:
  void add(size_t policy, const Grid& grid, const PaperInputs& in) {
    const size_t traces = in.traces.size();
    if (grid.size() != in.videos.size() * traces) {
      r_.violations.push_back(std::string(kPaperSpecs[policy]) + ": grid size != videos x traces");
    }
    if (policy == kSenseiFugu && video_qoe_.size() < in.videos.size()) {
      video_qoe_.resize(in.videos.size(), 0.0);
      video_sessions_.resize(in.videos.size(), 0);
    }
    for (size_t i = 0; i < grid.size(); ++i) {
      const size_t video = i / traces;
      const sim::SessionResult& s = grid[i].session;
      const double qoe = grid[i].true_qoe;
      const bool outage = s.outcome() == sim::SessionOutcome::kOutage;
      outages_ += outage ? 1 : 0;
      const size_t expected = outage ? s.failed_chunk() : in.videos[video].num_chunks();
      if (s.chunks().size() != expected || !std::isfinite(qoe)) {
        r_.violations.push_back(std::string(kPaperSpecs[policy]) + " session " +
                                std::to_string(i) +
                                ": chunk count or QoE inconsistent with its outcome");
      }
      digest_.add(static_cast<uint64_t>(s.outcome_cause()));
      digest_.add(static_cast<uint64_t>(s.failed_chunk()));
      digest_.add(s.startup_delay_s());
      for (const sim::ChunkRecord& c : s.chunks()) {
        digest_.add(static_cast<uint64_t>(c.level));
        digest_.add(c.download_start_s);
        digest_.add(c.download_time_s);
        digest_.add(c.rebuffer_s);
        digest_.add(c.scheduled_rebuffer_s);
        digest_.add(c.buffer_after_s);
      }
      digest_.add(qoe);
      if (policy == kFugu) {
        fugu_sum_ += qoe;
        ++fugu_sessions_;
      }
      if (policy == kSenseiFugu) {
        sensei_qoe_.push_back(qoe);
        video_qoe_[video] += qoe;
        ++video_sessions_[video];
        stall_s_ += s.total_rebuffer_s();
        media_s_ += static_cast<double>(s.chunks().size()) * s.chunk_duration_s();
      }
    }
    r_.sessions += grid.size();
  }

  PassResult finish() {
    r_.qoe_mean = util::mean(sensei_qoe_);
    // The oracle clamps QoE at 0, and more than a tenth of the sweep's
    // low-bandwidth sessions sit there, so the tail is taken over videos:
    // each video's mean QoE across its traces and scales.
    std::vector<double> video_means;
    for (size_t v = 0; v < video_qoe_.size(); ++v) {
      video_means.push_back(video_qoe_[v] / static_cast<double>(video_sessions_[v]));
    }
    r_.qoe_p10 = util::percentile(video_means, 10.0);
    r_.rebuffer_ratio = media_s_ > 0.0 ? stall_s_ / media_s_ : 0.0;
    r_.served_rate =
        static_cast<double>(r_.sessions - outages_) / static_cast<double>(r_.sessions);
    const double fugu_mean = fugu_sum_ / static_cast<double>(fugu_sessions_);
    r_.sensei_qoe_ratio = r_.qoe_mean / fugu_mean;
    r_.row = "paper";
    put(r_.row, "sessions", r_.sessions);
    put(r_.row, "outages", outages_);
    put(r_.row, "qoe_mean", r_.qoe_mean);
    put(r_.row, "qoe_p10", r_.qoe_p10);
    put(r_.row, "rebuffer_ratio", r_.rebuffer_ratio);
    put(r_.row, "fugu_qoe_mean", fugu_mean);
    r_.row += " sessions_fnv=" + digest_.hex();
    return std::move(r_);
  }

 private:
  PassResult r_;
  Fnv digest_;
  size_t outages_ = 0;
  double fugu_sum_ = 0.0;
  size_t fugu_sessions_ = 0;
  std::vector<double> sensei_qoe_;
  std::vector<double> video_qoe_;  // sensei-fugu QoE sum per video
  std::vector<size_t> video_sessions_;
  double stall_s_ = 0.0, media_s_ = 0.0;
};

class PaperWorkload final : public Workload {
 public:
  PaperWorkload(uint64_t seed, PaperShape shape) : seed_(seed), shape_(shape) {}

  void setup() override {
    const media::Encoder encoder;
    videos_.clear();
    for (const media::SourceVideo& source : media::Dataset::test_set()) {
      videos_.push_back(encoder.encode(source));
    }
    const core::Sensei sensei(core::Experiments::oracle());
    weights_.clear();
    for (const media::EncodedVideo& video : videos_) {
      weights_.push_back(sensei.profile(video).profile.weights);
    }
    // Stratified draws over [0.2, 1.0]: for every trace, one scale uniform
    // in each of `scales` equal strata, each from its own draw. Stalls
    // concentrate in the lowest stratum, so independent draws there (ten
    // traces' worth) keep the grid's averages steady from seed to seed.
    util::Rng rng(seed_);
    std::vector<net::ThroughputTrace> scaled;
    for (const net::ThroughputTrace& trace : net::TraceGenerator::test_set()) {
      for (size_t k = 0; k < shape_.scales; ++k) {
        const double scale = 0.2 + 0.8 * (static_cast<double>(k) + rng.uniform()) /
                                       static_cast<double>(shape_.scales);
        scaled.push_back(trace.scaled(scale));
      }
    }
    factories_.clear();
    for (const char* spec : kPaperSpecs) {
      factories_.push_back(core::Experiments::policy_factory(spec));
    }
    warmup_ = inputs(shape_.warmup_videos, scaled);
    traced_ = inputs(shape_.trace_videos, scaled);
    slices_.assign(shape_.slices, inputs(videos_.size(), {}));
    for (size_t i = 0; i < scaled.size(); ++i) {
      slices_[i % shape_.slices].traces.push_back(scaled[i]);
    }
    batch_ = PaperTally();
    folded_ = 0;
  }

  PassResult warmup(const core::ExperimentRunner& runner) override {
    PaperTally tally;
    for (size_t p = 0; p < kPaperPolicies; ++p) tally.add(p, grid(p, warmup_, runner), warmup_);
    return tally.finish();
  }

  size_t num_slices() const override { return shape_.slices; }

  PassResult run_slice(size_t k, const core::ExperimentRunner& runner) override {
    const PaperInputs& in = slices_[k];
    const bool fold = k == folded_;
    PaperTally tally;
    for (size_t p = 0; p < kPaperPolicies; ++p) {
      const Grid g = grid(p, in, runner);
      tally.add(p, g, in);
      if (fold) batch_.add(p, g, in);
    }
    if (fold) ++folded_;
    return tally.finish();
  }

  PassResult batch() override {
    if (folded_ != shape_.slices) throw std::logic_error("the timed batch is incomplete");
    return batch_.finish();
  }

  TraceReport trace(const core::ExperimentRunner& runner) override {
    const PaperInputs& in = traced_;
    const core::ExperimentRunner serial(1);
    std::vector<Grid> untraced;
    const double t0 = now_ns();
    for (size_t p = 0; p < kPaperPolicies; ++p) untraced.push_back(grid(p, in, serial));
    const double library_ns = now_ns() - t0;

    Ledger ledger;
    TraceCounters counters;
    const std::vector<Grid> replica =
        replay_grids({std::begin(kPaperSpecs), std::end(kPaperSpecs)}, {false, false, true},
                     in.videos, in.traces, in.weights, ledger, counters);
    set_span_costs(ledger, counters);

    TraceReport report;
    PaperTally tally;
    for (size_t p = 0; p < kPaperPolicies; ++p) {
      const Grid reference = grid(p, in, runner);
      tally.add(p, reference, in);
      report.sessions += replica[p].size();
      for (size_t i = 0; i < reference.size(); ++i) {
        const std::string where = std::string(kPaperSpecs[p]) + " session " + std::to_string(i);
        if (bench::sessions_differ(replica[p][i].session, reference[i].session) ||
            replica[p][i].true_qoe != reference[i].true_qoe) {
          report.failures.push_back("traced replica != run_grid: " + where);
        }
        if (bench::sessions_differ(untraced[p][i].session, reference[i].session) ||
            untraced[p][i].true_qoe != reference[i].true_qoe) {
          report.failures.push_back("1-thread trace subset differs: " + where);
        }
      }
    }
    report.row = tally.finish().row;
    report.metrics = per_layer_metrics(ledger, counters, library_ns);
    return report;
  }

 private:
  // The first `num_videos` Table-1 videos over `traces`.
  PaperInputs inputs(size_t num_videos, std::vector<net::ThroughputTrace> traces) const {
    const auto end = static_cast<long>(num_videos);
    PaperInputs in;
    in.videos.assign(videos_.begin(), videos_.begin() + end);
    in.weights.assign(weights_.begin(), weights_.begin() + end);
    in.traces = std::move(traces);
    return in;
  }

  Grid grid(size_t policy, const PaperInputs& in, const core::ExperimentRunner& runner) const {
    return core::Experiments::run_grid(in.videos, in.traces, factories_[policy],
                                       policy == kSenseiFugu ? in.weights : no_weights_,
                                       runner);
  }

  const std::vector<std::vector<double>> no_weights_;
  uint64_t seed_;
  PaperShape shape_;
  std::vector<media::EncodedVideo> videos_;
  std::vector<std::vector<double>> weights_;
  std::vector<core::Experiments::PolicyFactory> factories_;
  PaperInputs warmup_, traced_;
  std::vector<PaperInputs> slices_;
  PaperTally batch_;
  size_t folded_ = 0;
};

}  // namespace

std::string fnv_hex(const std::string& text) {
  Fnv fnv;
  fnv.add(text.data(), text.size());
  return fnv.hex();
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"fleet_mix", "fleet_index_dense",
                                                  "fleet_faults", "paper_sweep"};
  return kNames;
}

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed, bool smoke) {
  // A timed batch takes about 12-14 s on 4 threads of a Xeon VM, in slices
  // of about 1 s: large batches keep the simulated metrics' spread across
  // seeds small. Smoke sizes are about 1/50 of that.
  if (name == "fleet_mix") {
    return std::make_unique<FleetWorkload>(
        fleet_base(seed, 0.8), smoke ? FleetShape{2, 28, 8, 16} : FleetShape{14, 200, 55, 128});
  }
  if (name == "fleet_index_dense") {
    return std::make_unique<FleetWorkload>(
        fleet_base(seed, 1.6, {{"bba", 0.5}, {"whittle", 0.5}}),
        smoke ? FleetShape{2, 28, 8, 16} : FleetShape{14, 200, 55, 128});
  }
  if (name == "fleet_faults") {
    sim::FleetConfig cfg = fleet_base(seed, 0.8);
    add_faults(cfg);
    return std::make_unique<FleetWorkload>(
        std::move(cfg), smoke ? FleetShape{2, 21, 8, 16} : FleetShape{14, 150, 30, 128});
  }
  if (name == "paper_sweep") {
    return std::make_unique<PaperWorkload>(seed, smoke ? PaperShape{1, 2, 1, 2}
                                                       : PaperShape{45, 15, 1, 4});
  }
  throw std::invalid_argument("unknown workload \"" + name + "\"");
}

}  // namespace sensei::benchmark
