#include "net/predictor.h"

#include <algorithm>
#include <cmath>

#include "util/kernels.h"
#include "util/stats.h"

namespace sensei::net {

std::vector<ThroughputScenario> triangular_scenarios(size_t count, double center_kbps,
                                                     double cv) {
  std::vector<ThroughputScenario> out(count);
  if (count == 0) return out;
  // Vector fill of the (unnormalized) fan, sequential total, then one
  // normalization pass — the same per-element expressions and the same
  // left-to-right accumulation as the scalar loop this replaces.
  std::vector<double> kbps(count), prob(count);
  util::kernels::triangular_fan(count, center_kbps, cv, 30.0, kbps.data(), prob.data());
  const double total = util::kernels::sum_row(prob.data(), count);
  util::kernels::div_scalar_row(prob.data(), count, total, prob.data());
  for (size_t i = 0; i < count; ++i) out[i] = {kbps[i], prob[i]};
  return out;
}

void ThroughputPredictor::scenarios_into(std::vector<ThroughputScenario>& out) const {
  out.clear();
  out.push_back({predict_kbps(), 1.0});
}

HarmonicMeanPredictor::HarmonicMeanPredictor(size_t window, double initial_kbps)
    : initial_kbps_(initial_kbps), inverse_history_(window) {}

void HarmonicMeanPredictor::observe(double kbps) {
  if (kbps <= 0.0) kbps = 1.0;
  inverse_history_.push(1.0 / kbps);
}

double HarmonicMeanPredictor::predict_kbps() const {
  if (inverse_history_.empty()) return initial_kbps_;
  double inv_sum = 0.0;
  for (size_t i = 0; i < inverse_history_.size(); ++i) inv_sum += inverse_history_[i];
  return static_cast<double>(inverse_history_.size()) / inv_sum;
}

void HarmonicMeanPredictor::reset() { inverse_history_.clear(); }

EwmaPredictor::EwmaPredictor(double alpha, double initial_kbps)
    : alpha_(alpha), initial_kbps_(initial_kbps), estimate_(initial_kbps) {}

void EwmaPredictor::observe(double kbps) {
  if (kbps <= 0.0) kbps = 1.0;
  if (!seeded_) {
    estimate_ = kbps;
    seeded_ = true;
  } else {
    estimate_ = alpha_ * kbps + (1.0 - alpha_) * estimate_;
  }
}

double EwmaPredictor::predict_kbps() const { return estimate_; }

void EwmaPredictor::reset() {
  estimate_ = initial_kbps_;
  seeded_ = false;
}

ScenarioPredictor::ScenarioPredictor(size_t window, double initial_kbps)
    : point_(window, initial_kbps), history_(window) {}

void ScenarioPredictor::observe(double kbps) {
  point_.observe(kbps);
  history_.push(std::max(1.0, kbps));
}

double ScenarioPredictor::predict_kbps() const { return point_.predict_kbps(); }

void ScenarioPredictor::scenarios_into(std::vector<ThroughputScenario>& out) const {
  // Both windows key the memo: point_ retains the raw (clamped-at-observe)
  // kbps driving the harmonic mean, history_ the max(1, kbps) samples
  // driving the spread — they differ, so both must be unchanged to replay.
  out.clear();
  if (cache_valid_ && point_.window_generation() == cache_point_gen_ &&
      history_.generation() == cache_history_gen_) {
    for (size_t i = 0; i < 3; ++i) out.push_back({cache_kbps_[i], cache_prob_[i]});
    return;
  }

  double center = point_.predict_kbps();
  // Coefficient of variation of recent samples decides the scenario spread.
  // Computed directly over the history window (same oldest-first
  // accumulation order as util::mean/stddev over a copy, so the result is
  // bit-identical) to keep the per-decision path allocation-free.
  double cv = 0.25;
  if (history_.size() >= 3) {
    double sum = 0.0;
    for (size_t i = 0; i < history_.size(); ++i) sum += history_[i];
    double m = sum / static_cast<double>(history_.size());
    if (m > 0.0) {
      double acc = 0.0;
      for (size_t i = 0; i < history_.size(); ++i) {
        double x = history_[i];
        acc += (x - m) * (x - m);
      }
      double sd = std::sqrt(acc / static_cast<double>(history_.size()));
      cv = util::clamp(sd / m, 0.05, 0.8);
    }
  }
  out.push_back({std::max(30.0, center * (1.0 - cv)), 0.25});
  out.push_back({center, 0.5});
  out.push_back({center * (1.0 + cv), 0.25});
  for (size_t i = 0; i < 3; ++i) {
    cache_kbps_[i] = out[i].kbps;
    cache_prob_[i] = out[i].probability;
  }
  cache_point_gen_ = point_.window_generation();
  cache_history_gen_ = history_.generation();
  cache_valid_ = true;
}

void ScenarioPredictor::reset() {
  point_.reset();
  history_.clear();
}

}  // namespace sensei::net
