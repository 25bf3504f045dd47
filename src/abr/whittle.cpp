#include "abr/whittle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sensei::abr {

WhittleIndexAbr::WhittleIndexAbr(WhittleConfig config)
    : config_(config), predictor_(config.window) {
  if (config_.safety <= 0.0) throw std::invalid_argument("WhittleConfig: safety must be > 0");
  if (config_.headroom < 0.0) throw std::invalid_argument("WhittleConfig: headroom must be >= 0");
  if (config_.drain_penalty < 0.0) {
    throw std::invalid_argument("WhittleConfig: drain_penalty must be >= 0");
  }
}

void WhittleIndexAbr::begin_session(const media::EncodedVideo& video) {
  (void)video;
  predictor_.reset();
}

double WhittleIndexAbr::level_index(const sim::AbrObservation& obs, size_t level,
                                    double buffer_s, double budget_kbps) const {
  const media::EncodedVideo& video = *obs.video;
  // Predicted download time of this rung at the safety-scaled budget.
  double bits = video.size_bytes(obs.next_chunk, level) * 8.0;
  double download_s = bits / (budget_kbps * 1000.0);

  double vq = video.visual_quality(obs.next_chunk, level);
  double vq_prev =
      obs.next_chunk > 0 ? video.visual_quality(obs.next_chunk - 1, obs.last_level) : vq;

  // Stall risk: the part of the download the buffer cannot cover, priced by
  // the same saturating penalty the QoE model charges for a real stall.
  double uncovered_s = std::max(0.0, download_s - buffer_s);
  // Drain risk: post-download buffer below headroom * download time. This
  // fires earlier than the stall term, so the index de-escalates while
  // there is still buffer to protect.
  double shortfall_s = std::max(0.0, config_.headroom * download_s - (buffer_s - download_s));

  return vq - config_.chunk.beta_switch * std::abs(vq - vq_prev) -
         config_.chunk.beta_rebuf * qoe::stall_penalty(uncovered_s, config_.chunk) -
         config_.drain_penalty * shortfall_s;
}

sim::AbrDecision WhittleIndexAbr::decide(const sim::AbrObservation& obs) {
  if (obs.last_throughput_kbps > 0.0) predictor_.observe(obs.last_throughput_kbps);
  double budget_kbps = config_.safety * predictor_.predict_kbps();
  sim::AbrDecision d;
  if (!(budget_kbps > 0.0)) return d;  // degenerate forecast: lowest rung

  // Strict argmax over the rungs: ties keep the lowest rung, a NaN index
  // never wins after rung 0, and a NaN at rung 0 is never replaced.
  const size_t levels = obs.video->ladder().level_count();
  double best = level_index(obs, 0, obs.buffer_s, budget_kbps);
  for (size_t l = 1; l < levels; ++l) {
    const double idx = level_index(obs, l, obs.buffer_s, budget_kbps);
    if (idx > best) {
      best = idx;
      d.level = l;
    }
  }
  return d;
}

}  // namespace sensei::abr
