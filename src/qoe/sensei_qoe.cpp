#include "qoe/sensei_qoe.h"

#include "util/regression.h"
#include "util/stats.h"

namespace sensei::qoe {

SenseiQoeModel::SenseiQoeModel(std::vector<double> weights, ChunkQualityParams params)
    : weights_(std::move(weights)), params_(params) {}

double SenseiQoeModel::raw_score(const sim::RenderedVideo& video) const {
  const size_t n = video.num_chunks();
  if (n == 0) return 0.0;
  const std::vector<double>& q =
      thread_local_chunk_quality_cache().qualities(video, params_);
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i < n; ++i) {
    // A rendering may be longer than the profiled clip; weights past the
    // end (all of them, for KSQI) are 1, the mean weight.
    double w = i < weights_.size() ? weights_[i] : 1.0;
    num += w * q[i];
    den += w;
  }
  double base = den > 0.0 ? num / den : 0.0;
  return base - startup_weight_ * stall_penalty(video.startup_delay_s(), params_);
}

double SenseiQoeModel::predict(const sim::RenderedVideo& video) const {
  return util::clamp(scale_ * raw_score(video) + offset_, 0.0, 1.0);
}

void SenseiQoeModel::train(const std::vector<sim::RenderedVideo>& videos,
                           const std::vector<double>& mos) {
  if (videos.size() != mos.size() || videos.size() < 3) return;
  std::vector<std::vector<double>> rows;
  rows.reserve(videos.size());
  for (const auto& v : videos) rows.push_back({raw_score(v), 1.0});
  auto fit = util::fit_least_squares(rows, mos, 1e-6);
  if (fit.coefficients.size() == 2 && fit.coefficients[0] > 0.0) {
    scale_ = fit.coefficients[0];
    offset_ = fit.coefficients[1];
  }
}

}  // namespace sensei::qoe
