#include "qoe/p1203.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/stats.h"

namespace sensei::qoe {

P1203Model::P1203Model(ml::ForestConfig config, uint64_t seed)
    : forest_(config), seed_(seed) {}

std::vector<double> P1203Model::features(const sim::RenderedVideo& video) {
  const size_t n = video.num_chunks();
  std::vector<double> vq, stalls, bitrates;
  vq.reserve(n);
  size_t stall_events = 0;
  double max_stall = 0.0, total_stall = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const auto& c = video.chunk(i);
    vq.push_back(c.visual_quality);
    bitrates.push_back(c.bitrate_kbps);
    if (c.rebuffer_s > 0.0) {
      ++stall_events;
      max_stall = std::max(max_stall, c.rebuffer_s);
      total_stall += c.rebuffer_s;
      stalls.push_back(c.rebuffer_s);
    }
  }
  double playback = video.playback_duration_s();
  double low_fraction = 0.0;
  for (double b : bitrates) {
    if (b < 800.0) low_fraction += 1.0;
  }
  if (n) low_fraction /= static_cast<double>(n);

  return {
      util::mean(vq),
      util::min_of(vq),
      util::stddev(vq),
      playback > 0 ? total_stall / (playback + total_stall) : 0.0,  // stall ratio
      static_cast<double>(stall_events) / std::max<size_t>(n, 1),
      max_stall,
      static_cast<double>(video.switch_count()) / std::max<size_t>(n, 1),
      video.total_quality_switch_magnitude() / std::max<size_t>(n, 1),
      util::mean(bitrates) / 2850.0,
      low_fraction,
      stall_penalty(video.startup_delay_s()),
  };
}

double P1203Model::predict(const sim::RenderedVideo& video) const {
  if (!forest_.trained()) return fallback_;
  return util::clamp(forest_.predict(features(video)), 0.0, 1.0);
}

void P1203Model::train(const std::vector<sim::RenderedVideo>& videos,
                       const std::vector<double>& mos) {
  if (videos.size() != mos.size()) {
    throw std::invalid_argument("P1203Model::train: " + std::to_string(videos.size()) +
                                " videos but " + std::to_string(mos.size()) + " MOS values");
  }
  if (videos.size() < 5) return;
  std::vector<std::vector<double>> x;
  x.reserve(videos.size());
  for (const auto& v : videos) x.push_back(features(v));
  util::Rng rng(seed_);
  forest_.fit(x, mos, rng);
}

}  // namespace sensei::qoe
