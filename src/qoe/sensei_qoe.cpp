#include "qoe/sensei_qoe.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/stats.h"

namespace sensei::qoe {
namespace {

constexpr double kRidge = 1e-6;  // keeps the fit solvable when raw scores are all equal

}  // namespace

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
  if (videos.size() != mos.size()) {
    throw std::invalid_argument("SenseiQoeModel::train: " + std::to_string(videos.size()) +
                                " videos but " + std::to_string(mos.size()) + " MOS values");
  }
  if (videos.size() < 3) return;

  // Ridge least squares of mos ~ scale * s + offset over the raw scores s:
  // the 2x2 normal equations [a00 a01; a10 a11] [scale offset]' = [b0 b1]',
  // solved by Gaussian elimination with a partial pivot on the first column.
  double sum_ss = 0.0, sum_s = 0.0, sum_sy = 0.0, sum_y = 0.0;
  for (size_t j = 0; j < videos.size(); ++j) {
    const double s = raw_score(videos[j]);
    sum_ss += s * s;
    sum_s += s;
    sum_sy += s * mos[j];
    sum_y += mos[j];
  }
  double a00 = sum_ss + kRidge, a01 = sum_s, b0 = sum_sy;
  double a10 = sum_s, a11 = static_cast<double>(videos.size()) + kRidge, b1 = sum_y;
  if (std::abs(a10) > std::abs(a00)) {
    std::swap(a00, a10);
    std::swap(a01, a11);
    std::swap(b0, b1);
  }
  if (std::abs(a00) < 1e-12) throw std::runtime_error("SenseiQoeModel::train: singular fit");
  const double f = a10 / a00;
  if (f != 0.0) {
    a11 -= f * a01;
    b1 -= f * b0;
  }
  if (std::abs(a11) < 1e-12) throw std::runtime_error("SenseiQoeModel::train: singular fit");
  const double offset = b1 / a11;
  const double scale = (b0 - a01 * offset) / a00;
  if (scale > 0.0) {
    scale_ = scale;
    offset_ = offset;
  }
}

}  // namespace sensei::qoe
