#include "crowd/weights.h"

#include <algorithm>
#include <cmath>

#include "qoe/chunk_quality.h"
#include "util/regression.h"
#include "util/stats.h"

namespace sensei::crowd {
namespace {

constexpr double kRidgeLambda = 0.05;
constexpr int kIterations = 300;
const qoe::ChunkQualityParams kChunkParams;

}  // namespace

WeightSystem::WeightSystem(const sim::RenderedVideo& reference)
    : touched_(reference.num_chunks(), false) {
  qoe::chunk_qualities_into(reference, kChunkParams, q_ref_);
}

void WeightSystem::add(const sim::RenderedVideo& rendering, double mos) {
  const size_t num_chunks = q_ref_.size();
  qoe::chunk_qualities_into(rendering, kChunkParams, q_);
  util::SparseRow row;
  const size_t covered = std::min(num_chunks, q_.size());
  for (size_t i = 0; i < covered; ++i) {
    double delta = q_ref_[i] - q_[i];
    if (std::abs(delta) > 1e-12) {
      row.push_back({i, delta});
      touched_[i] = true;
    }
  }
  if (row.empty()) return;  // identical to the reference: no information
  rows_.push_back(std::move(row));
  mos_.push_back(mos);
  covered_.push_back(static_cast<double>(covered));
}

std::vector<double> WeightSystem::solve(double reference_mos) const {
  const size_t num_chunks = q_ref_.size();
  if (rows_.empty()) return std::vector<double>(num_chunks, 1.0);

  // MOS drops are scaled per covered chunk to match sum_i w_i delta_i,
  // which for an average-of-chunks QoE carries a 1/N factor.
  std::vector<double> targets(rows_.size());
  for (size_t j = 0; j < rows_.size(); ++j) targets[j] = (reference_mos - mos_[j]) * covered_[j];
  std::vector<double> w =
      util::fit_nonnegative_least_squares(rows_, num_chunks, targets, kRidgeLambda, kIterations);

  // Chunks untouched by every incident carry no signal; give them the mean
  // weight of the constrained chunks before normalizing.
  double touched_sum = 0.0;
  size_t touched_count = 0;
  for (size_t i = 0; i < num_chunks; ++i) {
    if (touched_[i]) {
      touched_sum += w[i];
      ++touched_count;
    }
  }
  double fill = touched_sum / static_cast<double>(touched_count);
  for (size_t i = 0; i < num_chunks; ++i) {
    if (!touched_[i]) w[i] = fill;
  }

  normalize_mean_one(w);
  return w;
}

void normalize_mean_one(std::vector<double>& weights) {
  if (weights.empty()) return;
  double m = util::mean(weights);
  if (m <= 1e-12) {
    weights.assign(weights.size(), 1.0);
    return;
  }
  for (double& w : weights) w /= m;
}

}  // namespace sensei::crowd
