// Descriptive statistics and correlation/rank metrics used throughout the
// evaluation harness: PLCC (Pearson), SRCC (Spearman), discordant-pair
// fraction, percentiles and empirical CDFs.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace sensei::util {

double mean(const std::vector<double>& v);
double variance(const std::vector<double>& v);  // population variance
double stddev(const std::vector<double>& v);
double min_of(const std::vector<double>& v);
double max_of(const std::vector<double>& v);
double sum(const std::vector<double>& v);

// Linear-interpolated percentile, p in [0,100]. Empty input -> 0.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

// Pearson linear correlation coefficient. Returns 0 when either input is
// degenerate (zero variance) or sizes mismatch.
double pearson(const std::vector<double>& x, const std::vector<double>& y);

// Spearman rank correlation: Pearson over fractional (tie-averaged) ranks.
double spearman(const std::vector<double>& x, const std::vector<double>& y);

// Fractional ranks (1-based, ties share the average rank).
std::vector<double> ranks(const std::vector<double>& v);

// Fraction of pairs (i, j) whose order differs between x and y.
// Ties in either vector are skipped (neither concordant nor discordant).
double discordant_fraction(const std::vector<double>& x, const std::vector<double>& y);

// Mean of |pred - truth| / |truth| over entries with |truth| > eps.
double mean_relative_error(const std::vector<double>& pred, const std::vector<double>& truth);

// Root-mean-square error.
double rmse(const std::vector<double>& pred, const std::vector<double>& truth);

// Empirical CDF evaluated at the sorted sample points.
// Returns (value, cumulative fraction) pairs suitable for plotting.
std::vector<std::pair<double, double>> empirical_cdf(std::vector<double> v);

// Min-max normalization into [0,1]; constant input maps to all 0.5.
std::vector<double> normalize01(const std::vector<double>& v);

// Clamps x into [lo, hi].
double clamp(double x, double lo, double hi);

// Online mean/variance accumulator (Welford) with exact min/max, mergeable:
// the streaming-aggregation primitive of the fleet simulator and the
// figures. merge() is Chan et al.'s pairwise combination. Merging is
// deterministic for a fixed merge order, which is how the fleet keeps its
// aggregates bit-identical across thread and shard counts: per-cell
// accumulators are filled single-threaded and folded serially in cell order.
class MergeableAccumulator {
 public:
  void add(double x);
  void merge(const MergeableAccumulator& other);
  size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Bounded-memory mergeable quantile sketch (centroid digest).
//
// A fixed-capacity array of (value, weight) centroids; when it fills, a
// deterministic compression sorts the centroids and coalesces them into
// kCompressed equal-weight buckets (weighted-mean value per bucket). Exact
// min/max are tracked on the side, so the tail queries quantile(0)/(1) are
// exact. quantile(q) interpolates linearly between centroid midpoints —
// rank error is bounded by the largest bucket weight, ~2/kCompressed of the
// population (tests pin <= 2/kCompressed against exact percentiles).
//
// All storage is reserved at construction: add() and merge() never allocate
// (the fleet hot-path discipline; quantile(), a report-time call, sorts a
// local copy and may). Deterministic: compression decisions depend only on
// the values seen, so a fixed add/merge order yields a bit-identical sketch
// regardless of thread or shard count.
class QuantileSketch {
 public:
  QuantileSketch();
  void add(double x);
  void merge(const QuantileSketch& other);
  size_t count() const { return n_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  // q in [0, 1]; q <= 0 and q >= 1 return the exact extremes. Empty -> 0.
  double quantile(double q) const;

  // Compression geometry, public so tests can state the error bound in
  // terms of the implementation's own constants.
  static constexpr size_t kCompressed = 64;   // centroids after compression
  static constexpr size_t kCapacity = 192;    // buffered centroids before one

 private:
  struct Centroid {
    double value = 0.0;
    double weight = 0.0;
  };
  void compress();

  std::vector<Centroid> centroids_;
  std::vector<Centroid> scratch_;  // compression target, capacity reserved
  size_t n_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace sensei::util
