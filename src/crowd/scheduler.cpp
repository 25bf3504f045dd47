#include "crowd/scheduler.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/stats.h"

namespace sensei::crowd {

Scheduler::Scheduler(const GroundTruthQoE& oracle, SchedulerConfig config, uint64_t seed)
    : oracle_(oracle), config_(config), seed_(seed) {}

SensitivityProfile Scheduler::profile(const media::EncodedVideo& video) {
  const size_t n = video.num_chunks();
  SensitivityProfile out;
  if (n == 0) {
    out.weights.assign(n, 1.0);
    return out;
  }

  sim::RenderedVideo reference = sim::RenderedVideo::pristine(video);

  // ---- Step 1: one 1-second rebuffering per chunk, M1 ratings each. ----
  std::vector<sim::RenderedVideo> step1 =
      sim::rebuffer_series(video, config_.step1_rebuffer_s);
  Campaign campaign1(oracle_, config_.rater, config_.campaign, seed_);
  CampaignResult res1 = campaign1.run(step1, reference, config_.m1);

  out.renderings_rated += step1.size();
  std::vector<sim::RenderedVideo> rated = std::move(step1);
  std::vector<double> mos = std::move(res1.mos);
  double reference_mos = res1.reference_mos;

  std::vector<double> w =
      infer_weights(rated, mos, reference, reference_mos, n, config_.inference);

  out.cost_usd += res1.cost_usd;
  out.elapsed_minutes += res1.elapsed_minutes;
  out.participants += res1.participants_recruited;
  for (size_t c : res1.rating_counts) out.ratings_collected += c;

  // ---- Step 2: refine only chunks whose provisional weight is alpha-far
  //      from the mean, with B bitrate drops and F rebuffering durations. ----
  std::vector<size_t> focus;
  for (size_t i = 0; i < n; ++i) {
    if (std::abs(w[i] - 1.0) >= config_.alpha) focus.push_back(i);
  }
  out.step2_chunks = focus.size();

  if (!focus.empty() && (config_.bitrate_levels > 0 || config_.rebuffer_levels > 0)) {
    std::vector<sim::RenderedVideo> step2;
    sim::RenderedVideo base = sim::RenderedVideo::pristine(video);
    const size_t top = video.ladder().level_count() - 1;
    for (size_t chunk : focus) {
      // B bitrate-drop levels, from the lowest rung upward.
      for (size_t b = 0; b < config_.bitrate_levels && b < top; ++b) {
        step2.push_back(base.with_bitrate_drop(chunk, 1, b, video));
      }
      // F extra rebuffering durations: 2s, 3s, ... (step 1 already did 1s).
      for (size_t f = 0; f < config_.rebuffer_levels; ++f) {
        step2.push_back(base.with_rebuffering(chunk, config_.step1_rebuffer_s + 1.0 +
                                                         static_cast<double>(f)));
      }
    }
    Campaign campaign2(oracle_, config_.rater, config_.campaign, seed_ ^ 0xBEEF);
    CampaignResult res2 = campaign2.run(step2, reference, config_.m2);

    for (size_t j = 0; j < step2.size(); ++j) {
      rated.push_back(step2[j]);
      mos.push_back(res2.mos[j]);
    }
    // Both campaigns rated the same reference; pool their estimates.
    reference_mos = 0.5 * (reference_mos + res2.reference_mos);
    w = infer_weights(rated, mos, reference, reference_mos, n, config_.inference);

    out.cost_usd += res2.cost_usd;
    out.elapsed_minutes += res2.elapsed_minutes;
    out.renderings_rated += step2.size();
    out.participants += res2.participants_recruited;
    for (size_t c : res2.rating_counts) out.ratings_collected += c;
  }

  out.weights = std::move(w);
  return out;
}

SensitivityProfile Scheduler::profile_exhaustive(const media::EncodedVideo& video,
                                                 size_t ratings_per_video) {
  const size_t n = video.num_chunks();
  SensitivityProfile out;
  if (n == 0) {
    out.weights.assign(n, 1.0);
    return out;
  }

  sim::RenderedVideo reference = sim::RenderedVideo::pristine(video);
  sim::RenderedVideo base = sim::RenderedVideo::pristine(video);
  const size_t top = video.ladder().level_count() - 1;

  // Every chunk x {all lower bitrates} x {1..5 s rebuffering}.
  std::vector<sim::RenderedVideo> renderings;
  for (size_t chunk = 0; chunk < n; ++chunk) {
    for (size_t level = 0; level < top; ++level) {
      renderings.push_back(base.with_bitrate_drop(chunk, 1, level, video));
    }
    for (int secs = 1; secs <= 5; ++secs) {
      renderings.push_back(base.with_rebuffering(chunk, static_cast<double>(secs)));
    }
  }

  Campaign campaign(oracle_, config_.rater, config_.campaign, seed_ ^ 0xFFFF);
  CampaignResult res = campaign.run(renderings, reference, ratings_per_video);

  out.weights = infer_weights(renderings, res.mos, reference, res.reference_mos, n,
                              config_.inference);
  out.cost_usd = res.cost_usd;
  out.elapsed_minutes = res.elapsed_minutes;
  out.renderings_rated = renderings.size();
  out.participants = res.participants_recruited;
  for (size_t c : res.rating_counts) out.ratings_collected += c;
  out.step2_chunks = n;
  return out;
}

}  // namespace sensei::crowd
