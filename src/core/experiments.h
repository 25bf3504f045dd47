// Shared evaluation fixtures (§7.1) used by the bench harness and the
// integration tests: the encoded Table-1 video set, the 10-trace network set,
// the ground-truth oracle, per-video sensitivity profiles, and trained
// Pensieve policies. Everything is deterministic and lazily cached, so bench
// binaries stay independent yet cheap.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "abr/bba.h"
#include "abr/fugu.h"
#include "abr/pensieve.h"
#include "core/runner.h"
#include "core/sensei.h"
#include "crowd/ground_truth.h"
#include "media/dataset.h"
#include "net/trace_gen.h"
#include "sim/player.h"
#include "sim/simulator.h"

namespace sensei::core {

class Experiments {
 public:
  // The 16 encoded source videos of Table 1.
  static const std::vector<media::EncodedVideo>& videos();
  // The 10 evaluation traces of §7.1 (ordered by mean throughput).
  static const std::vector<net::ThroughputTrace>& traces();
  // Separate trace set for RL training (never evaluated on).
  static const std::vector<net::ThroughputTrace>& train_traces();
  // The ground-truth "user" oracle.
  static const crowd::GroundTruthQoE& oracle();
  // Crowdsourced sensitivity weights per video (cached profiling runs).
  static const std::vector<std::vector<double>>& weights();
  // Profiling outputs (weights + cost bookkeeping) per video.
  static const std::vector<ProfileOutput>& profiles();

  // Trained policies (trained once, then shared; call-site must not mutate
  // training mode).
  static abr::PensieveAbr& pensieve();
  static abr::PensieveAbr& sensei_pensieve();

  // Streams `video` with `policy` and returns the oracle QoE of the outcome.
  struct RunResult {
    sim::SessionResult session;
    double true_qoe = 0.0;
  };
  static RunResult run(const media::EncodedVideo& video, const net::ThroughputTrace& trace,
                       sim::AbrPolicy& policy, const std::vector<double>& weights);

  // Index of a video inside videos() by name; throws if absent.
  static size_t video_index(const std::string& name);

  // --- Parallel evaluation grids (§7.1 sweeps) -----------------------------

  // Builds one policy instance per grid cell. Policies carry per-session
  // mutable state (Pensieve episodes, Fugu predictors), so they must never be
  // shared across workers; the factory makes the per-task ownership explicit.
  // For trained policies, return a copy: e.g.
  //   [] { return std::make_unique<abr::PensieveAbr>(Experiments::pensieve()); }
  using PolicyFactory = std::function<std::unique_ptr<sim::AbrPolicy>()>;

  // A PolicyFactory from a registry spec string ("bba", "fugu:planner=vi",
  // "whittle:safety=0.85" — see abr/registry.h for the grammar). The spec
  // is validated eagerly, so a bad name/key/value throws at the call site
  // rather than inside a worker. Two names are overlaid: "pensieve" and
  // "sensei-pensieve" yield copies of the cached *trained* instances above
  // (the registry alone builds untrained nets) and therefore accept only
  // default keys.
  static PolicyFactory policy_factory(const std::string& spec);

  // Fans the (video × trace) product over `runner` and returns results in
  // row-major order: cell (v, t) lands at index v * traces.size() + t,
  // bit-identical to the serial double loop regardless of thread count.
  // `weights_per_video` is either empty (weight-unaware ABRs) or one
  // sensitivity vector per video. Every cell's policy gets the call's one
  // abr::PlanBatch, so each cell equals Experiments::run bit for bit.
  static std::vector<RunResult> run_grid(
      const std::vector<media::EncodedVideo>& videos,
      const std::vector<net::ThroughputTrace>& traces, const PolicyFactory& make_policy,
      const std::vector<std::vector<double>>& weights_per_video,
      const ExperimentRunner& runner);

  // Convenience overload over the full evaluation sets: videos() × traces(),
  // with use_weights selecting the profiled weights() or none.
  static std::vector<RunResult> run_grid(const PolicyFactory& make_policy,
                                         bool use_weights, const ExperimentRunner& runner);

  // --- multi-session contention grids (shared-bottleneck scenarios) --------

  // One multi-session scenario: `num_sessions` viewers arriving staggered
  // (session k's first request at k * stagger_s) on traces()[trace_index],
  // either all contending on one net::SharedLink (kShared) or each on a
  // private copy of the trace (kDedicated — the no-contention control).
  // Videos (and their weights, when enabled) cycle round-robin over the
  // evaluation set; every session gets its own policy instance.
  struct MultiSessionCell {
    size_t trace_index = 0;
    size_t num_sessions = 1;
    double stagger_s = 0.0;
    sim::LinkMode mode = sim::LinkMode::kShared;
  };

  // Simulates every cell through sim::Simulator, fanning cells over
  // `runner`. results[c] holds cell c's per-session results in arrival
  // order, bit-identical to a serial run regardless of thread count (each
  // cell is an independent, deterministic event-loop run — the same
  // contract run_grid's single-session cells obey).
  static std::vector<std::vector<sim::MultiSessionResult>> run_multisession_grid(
      const std::vector<MultiSessionCell>& cells, const PolicyFactory& make_policy,
      bool use_weights, const ExperimentRunner& runner,
      const sim::PlayerConfig& config = sim::PlayerConfig());
};

}  // namespace sensei::core
