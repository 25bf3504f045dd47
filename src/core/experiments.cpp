#include "core/experiments.h"

#include <cmath>
#include <stdexcept>

#include "abr/registry.h"
#include "qoe/ksqi.h"

namespace sensei::core {

const std::vector<media::EncodedVideo>& Experiments::videos() {
  static const std::vector<media::EncodedVideo> kVideos = [] {
    media::Encoder encoder;
    std::vector<media::EncodedVideo> out;
    for (const auto& source : media::Dataset::test_set()) {
      out.push_back(encoder.encode(source));
    }
    return out;
  }();
  return kVideos;
}

const std::vector<net::ThroughputTrace>& Experiments::traces() {
  static const std::vector<net::ThroughputTrace> kTraces = net::TraceGenerator::test_set();
  return kTraces;
}

const std::vector<net::ThroughputTrace>& Experiments::train_traces() {
  static const std::vector<net::ThroughputTrace> kTraces = [] {
    // Disjoint seeds/means from the evaluation set so RL never trains on an
    // evaluation trace.
    std::vector<net::ThroughputTrace> out;
    out.push_back(net::TraceGenerator::cellular("train-cell-1", 600, 700.0, 901));
    out.push_back(net::TraceGenerator::cellular("train-cell-2", 1000, 700.0, 902));
    out.push_back(net::TraceGenerator::cellular("train-cell-3", 1700, 700.0, 903));
    out.push_back(net::TraceGenerator::cellular("train-cell-4", 2600, 700.0, 904));
    out.push_back(net::TraceGenerator::broadband("train-bb-1", 1300, 700.0, 905));
    out.push_back(net::TraceGenerator::broadband("train-bb-2", 2100, 700.0, 906));
    out.push_back(net::TraceGenerator::broadband("train-bb-3", 3200, 700.0, 907));
    out.push_back(net::TraceGenerator::broadband("train-bb-4", 4500, 700.0, 908));
    return out;
  }();
  return kTraces;
}

const crowd::GroundTruthQoE& Experiments::oracle() {
  static const crowd::GroundTruthQoE kOracle;
  return kOracle;
}

const std::vector<ProfileOutput>& Experiments::profiles() {
  static const std::vector<ProfileOutput> kProfiles = [] {
    Sensei sensei(oracle());
    std::vector<ProfileOutput> out;
    out.reserve(videos().size());
    for (const auto& video : videos()) out.push_back(sensei.profile(video));
    return out;
  }();
  return kProfiles;
}

const std::vector<std::vector<double>>& Experiments::weights() {
  static const std::vector<std::vector<double>> kWeights = [] {
    std::vector<std::vector<double>> out;
    out.reserve(profiles().size());
    for (const auto& p : profiles()) out.push_back(p.profile.weights);
    return out;
  }();
  return kWeights;
}

namespace {

// Trains candidate policies with different RL seeds and keeps the one the
// system's own QoE model scores best on the *training* traces. Policy
// gradients on small nets are seed-sensitive; validation selection is the
// standard remedy and uses no evaluation data.
abr::PensieveAbr* train_selected(bool sensei_mode,
                                 const std::vector<std::vector<double>>& weight_set,
                                 std::initializer_list<uint64_t> seeds) {
  abr::PensieveAbr* best = nullptr;
  double best_score = -1e18;
  for (uint64_t seed : seeds) {
    auto policy = (sensei_mode ? Sensei::make_sensei_pensieve(seed)
                               : Sensei::make_pensieve(seed))
                      .release();
    abr::PensieveTrainer::Options options;
    options.episodes = 6000;
    options.seed = seed * 31 + 7;
    abr::PensieveTrainer::train(*policy, Experiments::videos(), Experiments::train_traces(),
                                weight_set, options);

    // Validation: the system's own model scores sessions over the training
    // traces (weighted model for SENSEI mode, plain KSQI otherwise).
    double score = 0.0;
    sim::Player player;
    const std::vector<double> none;
    for (size_t v = 0; v < Experiments::videos().size(); ++v) {
      const std::vector<double>& w = weight_set.empty() ? none : weight_set[v];
      for (size_t t = 0; t < Experiments::train_traces().size(); t += 2) {
        auto session = player.stream(Experiments::videos()[v],
                                     Experiments::train_traces()[t], *policy, w);
        auto rendered = session.to_rendered(Experiments::videos()[v]);
        if (sensei_mode) {
          score += qoe::SenseiQoeModel(weight_set[v]).raw_score(rendered);
        } else {
          score += qoe::KsqiModel().raw_score(rendered);
        }
      }
    }
    if (score > best_score) {
      delete best;
      best_score = score;
      best = policy;
    } else {
      delete policy;
    }
  }
  return best;
}

}  // namespace

abr::PensieveAbr& Experiments::pensieve() {
  static abr::PensieveAbr* kPolicy = train_selected(false, {}, {41, 141, 241});
  return *kPolicy;
}

abr::PensieveAbr& Experiments::sensei_pensieve() {
  static abr::PensieveAbr* kPolicy = train_selected(true, weights(), {42, 142, 242});
  return *kPolicy;
}

Experiments::PolicyFactory Experiments::policy_factory(const std::string& spec) {
  const abr::PolicyRegistry& registry = abr::PolicyRegistry::instance();
  abr::PolicySpec canonical = registry.canonicalize(abr::PolicySpec::parse(spec));
  if (canonical.name == "pensieve" || canonical.name == "sensei-pensieve") {
    // Trained-net overlay: the registry builds a freshly seeded, untrained
    // net, but grid callers want the cached trained one. The cache exists
    // only at the default configuration, so non-default keys are an error
    // rather than silently ignored.
    abr::PolicySpec defaults;
    defaults.name = canonical.name;
    if (!(canonical == registry.canonicalize(defaults))) {
      throw std::runtime_error("policy spec \"" + spec + "\": trained " + canonical.name +
                               " is cached at default keys only");
    }
    bool sensei_mode = canonical.name == "sensei-pensieve";
    return [sensei_mode]() -> std::unique_ptr<sim::AbrPolicy> {
      return std::make_unique<abr::PensieveAbr>(sensei_mode ? sensei_pensieve() : pensieve());
    };
  }
  return [canonical, &registry] { return registry.make(canonical); };
}

Experiments::RunResult Experiments::run(const media::EncodedVideo& video,
                                        const net::ThroughputTrace& trace,
                                        sim::AbrPolicy& policy,
                                        const std::vector<double>& weights) {
  sim::Player player;
  RunResult result{player.stream(video, trace, policy, weights), 0.0};
  result.true_qoe = oracle().score(result.session.to_rendered(video));
  return result;
}

std::vector<Experiments::RunResult> Experiments::run_grid(
    const std::vector<media::EncodedVideo>& videos,
    const std::vector<net::ThroughputTrace>& traces, const PolicyFactory& make_policy,
    const std::vector<std::vector<double>>& weights_per_video,
    const ExperimentRunner& runner) {
  if (!weights_per_video.empty() && weights_per_video.size() != videos.size()) {
    throw std::invalid_argument("run_grid: weights_per_video must be empty or match videos");
  }
  // Touch every lazy singleton a task might need *before* fanning out:
  // function-local statics are initialization-thread-safe, but warming them
  // serially keeps the expensive builds (encoding, profiling) off the
  // workers and the task costs uniform.
  oracle();

  // One pool of static planning tables for the whole grid, attached to every
  // cell's policy like a Simulator or fleet run does: cells streaming the
  // same video build its chunk tables once, on whichever worker gets there
  // first, and decisions are bit-identical to unbatched ones.
  abr::PlanBatch batch;
  const std::vector<double> none;
  std::vector<RunResult> out(videos.size() * traces.size());
  runner.for_each(out.size(), [&](size_t i) {
    size_t v = i / traces.size();
    size_t t = i % traces.size();
    auto policy = make_policy();
    policy->attach_plan_batch(&batch);
    const std::vector<double>& w = weights_per_video.empty() ? none : weights_per_video[v];
    out[i] = run(videos[v], traces[t], *policy, w);
  });
  return out;
}

std::vector<Experiments::RunResult> Experiments::run_grid(const PolicyFactory& make_policy,
                                                          bool use_weights,
                                                          const ExperimentRunner& runner) {
  return run_grid(videos(), traces(), make_policy,
                  use_weights ? weights() : std::vector<std::vector<double>>{}, runner);
}

std::vector<std::vector<sim::MultiSessionResult>> Experiments::run_multisession_grid(
    const std::vector<MultiSessionCell>& cells, const PolicyFactory& make_policy,
    bool use_weights, const ExperimentRunner& runner, const sim::PlayerConfig& config) {
  const auto& video_set = videos();
  const auto& trace_set = traces();
  for (const MultiSessionCell& cell : cells) {
    if (cell.trace_index >= trace_set.size())
      throw std::invalid_argument("run_multisession_grid: trace index out of range");
    if (cell.num_sessions == 0)
      throw std::invalid_argument("run_multisession_grid: empty cell");
    if (!std::isfinite(cell.stagger_s) || cell.stagger_s < 0.0)
      throw std::invalid_argument("run_multisession_grid: stagger must be finite and >= 0");
  }
  if (use_weights) weights();  // warm the profiling cache off the workers

  // The video/weight pools are shared read-only state: build the pointer
  // views once, outside the workers.
  std::vector<const media::EncodedVideo*> video_ptrs;
  video_ptrs.reserve(video_set.size());
  for (const auto& v : video_set) video_ptrs.push_back(&v);
  std::vector<const std::vector<double>*> weight_ptrs;
  if (use_weights) {
    for (const auto& w : weights()) weight_ptrs.push_back(&w);
  }

  std::vector<std::vector<sim::MultiSessionResult>> out(cells.size());
  runner.for_each(cells.size(), [&](size_t c) {
    const MultiSessionCell& cell = cells[c];
    // Per-session mutable collaborators are built inside the task, like
    // run_grid: one policy instance per concurrent viewer.
    std::vector<std::unique_ptr<sim::AbrPolicy>> policies;
    policies.reserve(cell.num_sessions);
    std::vector<sim::AbrPolicy*> policy_ptrs;
    policy_ptrs.reserve(cell.num_sessions);
    for (size_t k = 0; k < cell.num_sessions; ++k) {
      policies.push_back(make_policy());
      policy_ptrs.push_back(policies.back().get());
    }
    auto specs = sim::StaggeredSpecs{video_ptrs, policy_ptrs, weight_ptrs,
                                     cell.num_sessions, cell.stagger_s}
                     .build();
    out[c] = sim::Simulator(config).run(specs, trace_set[cell.trace_index], cell.mode);
  });
  return out;
}

size_t Experiments::video_index(const std::string& name) {
  const auto& vs = videos();
  for (size_t i = 0; i < vs.size(); ++i) {
    if (vs[i].source().name() == name) return i;
  }
  throw std::runtime_error("experiments: unknown video " + name);
}

}  // namespace sensei::core
