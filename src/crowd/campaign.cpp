#include "crowd/campaign.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "util/stats.h"

namespace sensei::crowd {

Campaign::Campaign(const GroundTruthQoE& oracle, RaterConfig rater_config,
                   CampaignConfig config, uint64_t seed)
    : oracle_(oracle), pool_(rater_config, seed ^ 0x5151), config_(config), rng_(seed) {
  // A survey holds the reference plus K - 1 renderings: K < 2 would rate no
  // rendering at all.
  if (config_.videos_per_participant < 2) {
    throw std::invalid_argument("campaign: videos_per_participant must be >= 2, got " +
                                std::to_string(config_.videos_per_participant));
  }
}

CampaignResult Campaign::run(const std::vector<sim::RenderedVideo>& videos,
                             const sim::RenderedVideo& reference,
                             size_t ratings_per_video) {
  if (videos.empty()) throw std::runtime_error("campaign: no videos");
  if (ratings_per_video == 0) throw std::runtime_error("campaign: zero ratings requested");

  const size_t n = videos.size();
  std::vector<double> star_sums(n, 0.0);
  std::vector<size_t> counts(n, 0);
  std::vector<double> true_qoe(n);
  std::vector<double> watch_minutes(n);
  for (size_t i = 0; i < n; ++i) {
    true_qoe[i] = oracle_.score(videos[i]);
    watch_minutes[i] = (videos[i].playback_duration_s() + videos[i].total_rebuffer_s()) / 60.0;
  }
  const double reference_qoe = oracle_.score(reference);

  CampaignResult result;
  double elapsed_s = 0.0;
  double ref_star_sum = 0.0;
  size_t ref_count = 0;

  size_t short_of_ratings = n;  // renderings with fewer than ratings_per_video

  // Videos are assigned to surveys round-robin over a shuffled order so all
  // renderings accumulate ratings at a similar pace.
  std::vector<size_t> queue(n);
  std::iota(queue.begin(), queue.end(), size_t{0});
  rng_.shuffle(queue);
  size_t queue_pos = 0;

  while (short_of_ratings > 0 && result.participants_recruited < config_.max_participants) {
    // Sign-up latency dominates campaign delay; surveys run in parallel.
    elapsed_s += rng_.exponential(config_.signup_latency_s_mean);
    Rater rater = pool_.recruit();
    ++result.participants_recruited;

    // Assemble this participant's survey: K-1 pending videos + the reference.
    size_t assigned = std::min(config_.videos_per_participant - 1, n);
    std::vector<size_t> survey;
    for (size_t k = 0; k < assigned; ++k) {
      // Prefer videos still needing ratings.
      size_t tries = 0;
      size_t pick;
      do {
        pick = queue[queue_pos++ % queue.size()];
        ++tries;
      } while (counts[pick] >= ratings_per_video && tries < queue.size());
      survey.push_back(pick);
    }

    // Randomized viewing order (reference inserted at a random slot).
    rng_.shuffle(survey);

    // Rate the reference and the degraded renderings.
    Rating ref_rating = pool_.rate(rater, reference_qoe);
    std::vector<Rating> ratings;
    ratings.reserve(survey.size());
    double survey_minutes = (reference.playback_duration_s() +
                             reference.startup_delay_s()) / 60.0;
    for (size_t idx : survey) {
      ratings.push_back(pool_.rate(rater, true_qoe[idx]));
      survey_minutes += watch_minutes[idx];
    }

    // Quality control: reject if any degraded video outrated the reference,
    // or if any video was not fully watched.
    bool rejected = !ref_rating.watched_full;
    for (size_t k = 0; k < ratings.size() && !rejected; ++k) {
      if (!ratings[k].watched_full) rejected = true;
      if (ratings[k].stars > ref_rating.stars) rejected = true;
    }
    if (rejected) {
      ++result.participants_rejected;
      continue;  // rejected participants are not paid and contribute nothing
    }

    for (size_t k = 0; k < survey.size(); ++k) {
      star_sums[survey[k]] += ratings[k].stars;
      if (++counts[survey[k]] == ratings_per_video) --short_of_ratings;
    }
    ref_star_sum += ref_rating.stars;
    ++ref_count;
    result.watched_video_minutes += survey_minutes;
    result.cost_usd += config_.hourly_rate_usd * survey_minutes / 60.0;
  }

  if (short_of_ratings > 0) {
    throw std::runtime_error("campaign: max_participants (" +
                             std::to_string(config_.max_participants) + ") reached with " +
                             std::to_string(short_of_ratings) + " of " + std::to_string(n) +
                             " renderings short of " + std::to_string(ratings_per_video) +
                             " ratings");
  }

  // Every rendering and, with it, the reference now holds at least one
  // accepted rating.
  result.mos.resize(n);
  for (size_t i = 0; i < n; ++i) {
    result.mos[i] = RaterPool::stars_to_unit(star_sums[i] / static_cast<double>(counts[i]));
  }
  result.reference_mos = RaterPool::stars_to_unit(ref_star_sum / static_cast<double>(ref_count));
  result.rating_counts = std::move(counts);
  result.elapsed_minutes = elapsed_s / 60.0;
  return result;
}

}  // namespace sensei::crowd
