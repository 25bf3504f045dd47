// Two-step rendered-video scheduler (§4.3) — SENSEI's cost pruning.
//
// Step 1: publish N renderings, each with a single 1-second rebuffering event
// at a different chunk, rated by M1 participants each; infer provisional
// weights.
// Step 2: keep only the N' chunks whose provisional weight deviates from the
// mean by at least alpha; re-render those chunks with B extra bitrate levels
// and F rebuffering durations, rated by M2 participants each; re-infer.
//
// The exhaustive (no-pruning) alternative renders every chunk x bitrate x
// rebuffering combination at full rating depth — the paper's cost baseline in
// Figure 12c.
#pragma once

#include <cstdint>
#include <vector>

#include "crowd/ground_truth.h"
#include "crowd/weights.h"
#include "media/encoder.h"

namespace sensei::crowd {

// The five cost knobs of Figure 16: rating depths M1 and M2, the step-2
// threshold alpha, and step 2's B bitrate levels and F rebuffering
// durations. Campaigns run with the default RaterConfig and CampaignConfig.
struct SchedulerConfig {
  size_t m1 = 10;          // raters per rendering, step 1
  size_t m2 = 5;           // raters per rendering, step 2
  double alpha = 0.06;     // relative deviation threshold for step-2 chunks
  size_t bitrate_levels = 2;   // B: extra bitrate-drop levels in step 2
  size_t rebuffer_levels = 1;  // F: extra rebuffering durations in step 2
};

struct SensitivityProfile {
  std::vector<double> weights;     // mean-1 normalized, one per chunk
  double cost_usd = 0.0;
  double elapsed_minutes = 0.0;
  size_t renderings_rated = 0;
  size_t ratings_collected = 0;
  size_t participants = 0;
  size_t step2_chunks = 0;  // N'
};

class Scheduler {
 public:
  Scheduler(const GroundTruthQoE& oracle, SchedulerConfig config = SchedulerConfig(),
            uint64_t seed = 0x5EED);

  // Runs the full two-step profiling pipeline on an encoded video.
  SensitivityProfile profile(const media::EncodedVideo& video);

  // Cost baseline: no pruning — all chunks x all incident combinations at
  // `ratings_per_video` depth (Figure 12c "w/o cost pruning").
  SensitivityProfile profile_exhaustive(const media::EncodedVideo& video,
                                        size_t ratings_per_video = 30);

 private:
  // One rating step: rates `renderings` against `reference` at `ratings`
  // depth with a campaign seeded `seed`, books its cost, time and counts into
  // `out` and adds each rendering's row to `system`. Returns the step's
  // measured reference MOS.
  double rate(const std::vector<sim::RenderedVideo>& renderings,
              const sim::RenderedVideo& reference, size_t ratings, uint64_t seed,
              WeightSystem& system, SensitivityProfile& out) const;

  const GroundTruthQoE& oracle_;
  SchedulerConfig config_;
  uint64_t seed_;
};

}  // namespace sensei::crowd
