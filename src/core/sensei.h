// SENSEI façade: the public entry point tying the system together (§3).
//
// Typical use:
//   crowd::GroundTruthQoE oracle;                 // stands in for real users
//   core::Sensei sensei(oracle);
//   auto profiled = sensei.profile(encoded_video);  // crowdsourced weights
//   auto abr = abr::make_policy("sensei-fugu");
//   sim::Player player;
//   auto session = player.stream(encoded_video, trace, *abr,
//                                profiled.profile.weights);
//
// The SENSEI ABR variants are thin deltas on the base algorithms (§5.2),
// built like every other policy by abr::make_policy (abr/registry.h):
//  - sensei-fugu: Fugu's MPC with the weighted objective (Eq. 4) and
//    scheduled-rebuffering options {0,1,2} s for the next chunk.
//  - sensei-pensieve: Pensieve with weights in the state, rebuffer actions,
//    and sensitivity-weighted rewards; must be (re)trained before use.
#pragma once

#include <cstdint>

#include "crowd/scheduler.h"
#include "media/encoder.h"
#include "sim/manifest.h"

namespace sensei::core {

// What profiling a video yields (paper Figure 8): the per-chunk
// sensitivity profile, and the sensitivity-augmented DASH manifest to
// distribute to players.
struct ProfileOutput {
  crowd::SensitivityProfile profile;
  sim::Manifest manifest;
};

class Sensei {
 public:
  explicit Sensei(const crowd::GroundTruthQoE& oracle,
                  crowd::SchedulerConfig scheduler_config = crowd::SchedulerConfig(),
                  uint64_t seed = 0x5E15E1);

  // Profiles a video: runs the two-step crowdsourced profiling and packages
  // the weights into the manifest.
  ProfileOutput profile(const media::EncodedVideo& video) const;

 private:
  const crowd::GroundTruthQoE& oracle_;
  crowd::SchedulerConfig scheduler_config_;
  uint64_t seed_;
};

}  // namespace sensei::core
