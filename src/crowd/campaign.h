// MTurk campaign simulator (§4.1, §6, Appendix B).
//
// Simulates publishing a set of rendered videos and collecting the requested
// number of accepted ratings per video, with the paper's quality controls:
//   - every survey includes the pristine reference video; a participant who
//     rates any degraded rendering above the reference is rejected;
//   - a participant who does not watch every video in full is rejected;
//   - viewing order is randomized per participant;
//   - participants are paid a fixed hourly rate ($10/h) proportional to the
//     total video length in their survey; rejected participants are not paid.
//
// Cost is therefore proportional to accepted watched minutes; elapsed time is
// dominated by participant sign-up latency, modeled per the paper's
// observation (~tens of minutes for 100 participants).
#pragma once

#include <vector>

#include "crowd/ground_truth.h"
#include "crowd/rater.h"
#include "sim/render.h"

namespace sensei::crowd {

struct CampaignConfig {
  size_t videos_per_participant = 6;   // K, including the reference; >= 2
  double hourly_rate_usd = 10.0;
  double signup_latency_s_mean = 45.0;  // mean gap between sign-ups
  size_t max_participants = 100000;     // safety valve; run() throws on reaching it
};

struct CampaignResult {
  std::vector<double> mos;             // normalized [0,1], one per input video
  std::vector<size_t> rating_counts;   // accepted ratings per video
  double reference_mos = 1.0;          // measured MOS of the pristine reference
  size_t participants_recruited = 0;
  size_t participants_rejected = 0;
  double cost_usd = 0.0;
  double elapsed_minutes = 0.0;
  double watched_video_minutes = 0.0;  // accepted watch time (paid)
};

class Campaign {
 public:
  // Throws std::invalid_argument when config.videos_per_participant < 2.
  Campaign(const GroundTruthQoE& oracle, RaterConfig rater_config = RaterConfig(),
           CampaignConfig config = CampaignConfig(), uint64_t seed = 0xCA3Fu);

  // Collects at least `ratings_per_video` accepted ratings for each video.
  // `reference` must be the pristine rendering of the same source. Throws
  // std::runtime_error when config.max_participants are recruited before
  // every video has its ratings.
  CampaignResult run(const std::vector<sim::RenderedVideo>& videos,
                     const sim::RenderedVideo& reference, size_t ratings_per_video);

 private:
  const GroundTruthQoE& oracle_;
  RaterPool pool_;
  CampaignConfig config_;
  util::Rng rng_;
};

}  // namespace sensei::crowd
