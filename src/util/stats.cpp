#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace sensei::util {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  double m = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

double stddev(const std::vector<double>& v) { return std::sqrt(variance(v)); }

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v[0];
  double pos = clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  double mx = mean(x), my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> ranks(const std::vector<double>& v) {
  const size_t n = v.size();
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) { return v[a] < v[b]; });
  std::vector<double> r(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && v[idx[j + 1]] == v[idx[i]]) ++j;
    // Average rank for the tie group [i, j] (1-based ranks).
    double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (size_t k = i; k <= j; ++k) r[idx[k]] = avg;
    i = j + 1;
  }
  return r;
}

double spearman(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  return pearson(ranks(x), ranks(y));
}

double discordant_fraction(const std::vector<double>& x, const std::vector<double>& y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  size_t discordant = 0, comparable = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    for (size_t j = i + 1; j < x.size(); ++j) {
      double dx = x[i] - x[j], dy = y[i] - y[j];
      if (dx == 0.0 || dy == 0.0) continue;
      ++comparable;
      if ((dx > 0) != (dy > 0)) ++discordant;
    }
  }
  if (comparable == 0) return 0.0;
  return static_cast<double>(discordant) / static_cast<double>(comparable);
}

double mean_relative_error(const std::vector<double>& pred, const std::vector<double>& truth) {
  if (pred.size() != truth.size() || pred.empty()) return 0.0;
  constexpr double kEps = 1e-9;
  double acc = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < pred.size(); ++i) {
    if (std::abs(truth[i]) <= kEps) continue;
    acc += std::abs(pred[i] - truth[i]) / std::abs(truth[i]);
    ++n;
  }
  return n ? acc / static_cast<double>(n) : 0.0;
}

double rmse(const std::vector<double>& pred, const std::vector<double>& truth) {
  if (pred.size() != truth.size() || pred.empty()) return 0.0;
  double acc = 0.0;
  for (size_t i = 0; i < pred.size(); ++i) {
    double d = pred[i] - truth[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(pred.size()));
}

std::vector<std::pair<double, double>> empirical_cdf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::vector<std::pair<double, double>> cdf;
  cdf.reserve(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    cdf.emplace_back(v[i], static_cast<double>(i + 1) / static_cast<double>(v.size()));
  }
  return cdf;
}

std::vector<double> normalize01(const std::vector<double>& v) {
  if (v.empty()) return {};
  double lo = min_of(v), hi = max_of(v);
  std::vector<double> out(v.size());
  if (hi - lo <= 0.0) {
    std::fill(out.begin(), out.end(), 0.5);
    return out;
  }
  for (size_t i = 0; i < v.size(); ++i) out[i] = (v[i] - lo) / (hi - lo);
  return out;
}

double clamp(double x, double lo, double hi) { return std::min(hi, std::max(lo, x)); }

void MergeableAccumulator::add(double x) {
  // Welford's update; tests/test_stats.cpp pins it bit for bit against a
  // plain reference.
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
}

void MergeableAccumulator::merge(const MergeableAccumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  // Chan et al. pairwise combination of (n, mean, M2).
  double na = static_cast<double>(n_);
  double nb = static_cast<double>(other.n_);
  double delta = other.mean_ - mean_;
  mean_ += delta * (nb / (na + nb));
  m2_ += other.m2_ + delta * delta * (na * nb / (na + nb));
  n_ += other.n_;
  if (other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
}

double MergeableAccumulator::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double MergeableAccumulator::stddev() const { return std::sqrt(variance()); }

QuantileSketch::QuantileSketch() {
  // Everything add()/merge() can ever need, reserved up front: the buffer
  // itself plus one whole incoming sketch appended before a compression.
  centroids_.reserve(kCapacity + kCapacity);
  scratch_.reserve(kCompressed + 1);
}

void QuantileSketch::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }
  ++n_;
  centroids_.push_back({x, 1.0});
  if (centroids_.size() >= kCapacity) compress();
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  n_ += other.n_;
  centroids_.insert(centroids_.end(), other.centroids_.begin(), other.centroids_.end());
  if (centroids_.size() >= kCapacity) compress();
}

void QuantileSketch::compress() {
  if (centroids_.size() <= kCompressed) return;
  // (value, weight) sort: a total, input-determined order — the whole
  // compression is then a pure function of the multiset seen so far.
  std::sort(centroids_.begin(), centroids_.end(), [](const Centroid& a, const Centroid& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.weight < b.weight;
  });
  double total = 0.0;
  for (const Centroid& c : centroids_) total += c.weight;
  scratch_.clear();
  // Greedy equal-weight bucketing: emit a merged centroid each time the
  // cumulative weight crosses the next bucket boundary k * total / B.
  double cum = 0.0, acc_w = 0.0, acc_vw = 0.0;
  size_t bucket = 1;
  const double step = total / static_cast<double>(kCompressed);
  for (const Centroid& c : centroids_) {
    cum += c.weight;
    acc_w += c.weight;
    acc_vw += c.value * c.weight;
    if (cum >= static_cast<double>(bucket) * step - 1e-9 * total) {
      scratch_.push_back({acc_vw / acc_w, acc_w});
      acc_w = acc_vw = 0.0;
      while (static_cast<double>(bucket) * step <= cum + 1e-9 * total) ++bucket;
    }
  }
  if (acc_w > 0.0) scratch_.push_back({acc_vw / acc_w, acc_w});
  centroids_.swap(scratch_);  // both keep their reserved capacity
}

double QuantileSketch::quantile(double q) const {
  if (n_ == 0) return 0.0;
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  std::vector<Centroid> cs = centroids_;  // report-time call: copying is fine
  std::sort(cs.begin(), cs.end(), [](const Centroid& a, const Centroid& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.weight < b.weight;
  });
  double total = 0.0;
  for (const Centroid& c : cs) total += c.weight;
  double rank = q * total;
  // Each centroid occupies a weight-span of the rank axis; interpolate
  // between consecutive centroid midpoints (and the exact extremes at the
  // ends), the standard digest query.
  double cum = 0.0;
  double prev_mid = 0.0;
  double prev_val = min_;
  for (const Centroid& c : cs) {
    double mid = cum + c.weight / 2.0;
    if (rank <= mid) {
      double span = mid - prev_mid;
      double frac = span > 0.0 ? (rank - prev_mid) / span : 1.0;
      return prev_val + (c.value - prev_val) * frac;
    }
    prev_mid = mid;
    prev_val = c.value;
    cum += c.weight;
  }
  double span = total - prev_mid;
  double frac = span > 0.0 ? (rank - prev_mid) / span : 1.0;
  return prev_val + (max_ - prev_val) * frac;
}

}  // namespace sensei::util
