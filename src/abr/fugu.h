// Fugu-style model-predictive ABR (Yan et al., NSDI'20), re-implemented as
// described in the paper's §5.2: before downloading chunk i it considers a
// probabilistic throughput forecast, simulates the buffer over the next h
// chunks for every candidate bitrate sequence, and picks the sequence
// maximizing the expected sum of per-chunk quality q(b_j, t_j) (Eq. 3). Only
// the first decision is acted upon; the controller replans every chunk.
//
// SENSEI-Fugu is this class with FuguConfig::use_weights (the weighted
// objective, Eq. 4) and scheduled-rebuffering options; the registry's
// sensei-fugu names set both.
//
// The lookahead itself is delegated to abr::Planner (src/abr/planner.h),
// chosen by `FuguConfig::planner`: the exact branch-and-bound DpPlanner by
// default, or the discretized ViPlanner for fleet scale. The DP returns the
// exhaustive reference recursion's decisions bit for bit
// (tests/test_planner_equivalence.cpp, tests/test_oracle_grids.cpp).
#pragma once

#include "abr/planner.h"
#include "net/predictor.h"
#include "qoe/chunk_quality.h"
#include "sim/player.h"

namespace sensei::abr {

struct FuguConfig {
  size_t horizon = 5;
  size_t predictor_window = 8;
  qoe::ChunkQualityParams chunk;
  // When true, the expected objective weights each chunk's quality by the
  // sensitivity weights offered in the observation (used by SENSEI-Fugu).
  bool use_weights = false;
  // Crowdsourced weights are noisy estimates; the objective uses
  // w' = 1 + shrinkage * (w - 1), shrinking toward indifference so the
  // controller does not over-commit to mis-profiled chunks.
  double weight_shrinkage = 0.8;
  // Scheduled rebuffering options evaluated for the *next* chunk (seconds).
  // Vanilla Fugu uses {0}; SENSEI-Fugu passes {0,1,2}.
  std::vector<double> rebuffer_options = {0.0};
  // A deliberate stall is taken only when its planned objective beats the
  // best stall-free plan by this margin. Throughput scenarios overstate
  // stall risk often enough that an un-gated rebuffer action loses QoE.
  double rebuffer_margin = 0.35;
  // Which lookahead engine realizes the objective. kDp (default) is the
  // exact branch and bound; kVi is the discretized value iteration — lossy
  // but an order of magnitude faster, the fleet-scale mode (see planner.h).
  PlannerKind planner = PlannerKind::kDp;
};

class FuguAbr : public sim::AbrPolicy {
 public:
  // Builds the planner `config.planner` names (make_planner).
  explicit FuguAbr(FuguConfig config = FuguConfig());
  // Runs `planner` in place of the one the config names; config.planner is
  // then unused. The seam through which the tests stream full sessions on
  // the exhaustive reference planner.
  FuguAbr(FuguConfig config, std::unique_ptr<Planner> planner);

  const char* name() const override { return config_.use_weights ? "Sensei-Fugu" : "Fugu"; }
  void begin_session(const media::EncodedVideo& video) override;
  sim::AbrDecision decide(const sim::AbrObservation& obs) override;
  // Forwarded to the planner. FuguAbr is move-only: a copy could neither
  // share the planner nor rebuild an injected one from the config.
  void attach_plan_batch(PlanBatch* batch) override { planner_->set_batch(batch); }

  const FuguConfig& config() const { return config_; }
  const Planner& planner() const { return *planner_; }

 private:
  FuguConfig config_;
  net::ScenarioPredictor predictor_;
  std::unique_ptr<Planner> planner_;
  // Scenario buffer refilled in place every decision (no per-decide heap
  // allocation once warm).
  std::vector<net::ThroughputScenario> scenario_buf_;
};

}  // namespace sensei::abr
