// SENSEI façade: the public entry point tying the system together (§3).
//
// Typical use:
//   crowd::GroundTruthQoE oracle;                 // stands in for real users
//   core::Sensei sensei(oracle);
//   auto profiled = sensei.profile(encoded_video);  // crowdsourced weights
//   auto abr = core::Sensei::make_sensei_fugu(profiled.profile.weights);
//   sim::Player player;
//   auto session = player.stream(encoded_video, trace, *abr,
//                                profiled.profile.weights);
//
// The SENSEI ABR variants are thin deltas on the base algorithms (§5.2):
//  - SENSEI-Fugu: Fugu's MPC with the weighted objective (Eq. 4) and
//    scheduled-rebuffering options {0,1,2} s for the next chunk.
//  - SENSEI-Pensieve: Pensieve with weights in the state, rebuffer actions,
//    and sensitivity-weighted rewards; must be (re)trained before use.
#pragma once

#include <memory>

#include "abr/fugu.h"
#include "abr/pensieve.h"
#include "core/pipeline.h"

namespace sensei::core {

class Sensei {
 public:
  explicit Sensei(const crowd::GroundTruthQoE& oracle,
                  crowd::SchedulerConfig scheduler_config = crowd::SchedulerConfig(),
                  uint64_t seed = 0x5E15E1);

  // Profiles a video: runs the crowdsourcing pipeline, returns weights +
  // manifest (see ProfilingPipeline).
  ProfileOutput profile(const media::EncodedVideo& video) const;

  // --- ABR factory helpers -------------------------------------------------
  //
  // The Fugu factories take the lookahead engine as a parameter: the exact
  // branch-and-bound DP by default, or the discretized value iteration
  // (abr/planner.h).

  // Vanilla baselines.
  static std::unique_ptr<abr::FuguAbr> make_fugu(
      qoe::ChunkQualityParams params = {},
      abr::PlannerKind planner = abr::PlannerKind::kDp);
  static std::unique_ptr<abr::PensieveAbr> make_pensieve(uint64_t seed = 41,
                                                         qoe::ChunkQualityParams params = {});

  // SENSEI variants. Weights reach the ABR through the player's observation
  // (sourced from the manifest), so these need no weight vector at build time.
  static std::unique_ptr<abr::FuguAbr> make_sensei_fugu(
      qoe::ChunkQualityParams params = {},
      abr::PlannerKind planner = abr::PlannerKind::kDp);
  // `bitrate_adaptation_only` disables the scheduled-rebuffering action while
  // keeping the weighted objective (the Figure 18b middle bar).
  static std::unique_ptr<abr::FuguAbr> make_sensei_fugu_bitrate_only(
      qoe::ChunkQualityParams params = {},
      abr::PlannerKind planner = abr::PlannerKind::kDp);
  static std::unique_ptr<abr::PensieveAbr> make_sensei_pensieve(
      uint64_t seed = 42, qoe::ChunkQualityParams params = {});

 private:
  ProfilingPipeline pipeline_;
};

}  // namespace sensei::core
