#include "crowd/scheduler.h"

#include <cmath>

#include "crowd/campaign.h"

namespace sensei::crowd {

Scheduler::Scheduler(const GroundTruthQoE& oracle, SchedulerConfig config, uint64_t seed)
    : oracle_(oracle), config_(config), seed_(seed) {}

double Scheduler::rate(const std::vector<sim::RenderedVideo>& renderings,
                       const sim::RenderedVideo& reference, size_t ratings, uint64_t seed,
                       WeightSystem& system, SensitivityProfile& out) const {
  Campaign campaign(oracle_, RaterConfig(), CampaignConfig(), seed);
  CampaignResult res = campaign.run(renderings, reference, ratings);
  out.cost_usd += res.cost_usd;
  out.elapsed_minutes += res.elapsed_minutes;
  out.renderings_rated += renderings.size();
  out.participants += res.participants_recruited;
  for (size_t c : res.rating_counts) out.ratings_collected += c;
  for (size_t j = 0; j < renderings.size(); ++j) system.add(renderings[j], res.mos[j]);
  return res.reference_mos;
}

SensitivityProfile Scheduler::profile(const media::EncodedVideo& video) {
  const size_t n = video.num_chunks();
  SensitivityProfile out;
  if (n == 0) return out;

  const sim::RenderedVideo reference = sim::RenderedVideo::pristine(video);
  WeightSystem system(reference);

  // ---- Step 1: one 1-second rebuffering per chunk, M1 ratings each. ----
  const double reference_mos1 =
      rate(sim::rebuffer_series(video, 1.0), reference, config_.m1, seed_, system, out);
  std::vector<double> w = system.solve(reference_mos1);

  // ---- Step 2: refine only chunks whose provisional weight is alpha-far
  //      from the mean, with B bitrate drops and F rebuffering durations. ----
  std::vector<size_t> focus;
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(w[i] - 1.0) >= config_.alpha) focus.push_back(i);
  }
  out.step2_chunks = focus.size();

  if (!focus.empty() && (config_.bitrate_levels > 0 || config_.rebuffer_levels > 0)) {
    std::vector<sim::RenderedVideo> step2;
    const size_t top = video.ladder().level_count() - 1;
    for (size_t chunk : focus) {
      // B bitrate-drop levels, from the lowest rung upward.
      for (size_t b = 0; b < config_.bitrate_levels && b < top; ++b) {
        step2.push_back(reference.with_bitrate_drop(chunk, 1, b, video));
      }
      // F extra rebuffering durations: 2s, 3s, ... (step 1 already did 1s).
      for (size_t f = 0; f < config_.rebuffer_levels; ++f) {
        step2.push_back(reference.with_rebuffering(chunk, 2.0 + static_cast<double>(f)));
      }
    }
    const double reference_mos2 =
        rate(step2, reference, config_.m2, seed_ ^ 0xBEEF, system, out);
    // Both campaigns rated the same reference; pool their estimates.
    w = system.solve(0.5 * (reference_mos1 + reference_mos2));
  }

  out.weights = std::move(w);
  return out;
}

SensitivityProfile Scheduler::profile_exhaustive(const media::EncodedVideo& video,
                                                 size_t ratings_per_video) {
  const size_t n = video.num_chunks();
  SensitivityProfile out;
  if (n == 0) return out;

  const sim::RenderedVideo reference = sim::RenderedVideo::pristine(video);
  const size_t top = video.ladder().level_count() - 1;

  // Every chunk x {all lower bitrates} x {1..5 s rebuffering}.
  std::vector<sim::RenderedVideo> renderings;
  for (size_t chunk = 0; chunk < n; ++chunk) {
    for (size_t level = 0; level < top; ++level) {
      renderings.push_back(reference.with_bitrate_drop(chunk, 1, level, video));
    }
    for (int secs = 1; secs <= 5; ++secs) {
      renderings.push_back(reference.with_rebuffering(chunk, static_cast<double>(secs)));
    }
  }

  WeightSystem system(reference);
  const double reference_mos =
      rate(renderings, reference, ratings_per_video, seed_ ^ 0xFFFF, system, out);
  out.weights = system.solve(reference_mos);
  out.step2_chunks = n;
  return out;
}

}  // namespace sensei::crowd
