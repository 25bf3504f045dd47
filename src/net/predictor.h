// Throughput predictors used by the MPC-style ABR algorithms.
//
// Fugu's controller (paper Eq. 3) needs a *probabilistic* forecast: a small
// discrete distribution over near-future throughput. We provide a harmonic-
// mean point predictor (MPC classic), an EWMA predictor, and a discrete
// scenario predictor that wraps a point estimate with low/expected/high
// scenarios weighted by recent prediction-error statistics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sensei::net {

// Fixed-capacity window over the most recent observations, oldest first.
// Replaces the std::deque the predictors used to hold their history: a
// deque's head marches through heap blocks as the window slides, so every
// session kept allocating on the per-chunk observe() path; the ring is a
// single vector sized once. Iteration order (index 0 = oldest) matches the
// deque it replaced, so all accumulations are bit-identical.
class SampleWindow {
 public:
  explicit SampleWindow(size_t capacity)
      : data_(capacity > 0 ? capacity : 1), capacity_(capacity) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // i = 0 is the oldest retained sample (i < size()).
  double operator[](size_t i) const { return data_[wrap(head_ + i)]; }

  // Appends a sample, evicting the oldest when full. A zero-capacity
  // window retains nothing (the deque-with-immediate-evict behavior).
  void push(double v) {
    if (capacity_ == 0) return;
    if (size_ < capacity_) {
      data_[wrap(head_ + size_)] = v;
      ++size_;
    } else {
      data_[head_] = v;
      head_ = wrap(head_ + 1);
    }
    ++generation_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
    ++generation_;
  }

  // Monotonic stamp bumped by every retained-content change (push into a
  // nonzero-capacity window, clear). Two reads with equal generations saw
  // bit-identical window contents, so callers — e.g. the ScenarioPredictor
  // scenario cache — can detect "window unchanged" in O(1) instead of
  // hashing or copying the samples.
  uint64_t generation() const { return generation_; }

 private:
  // Ring position of head_ + i: both terms are below the ring size, so one
  // conditional subtract replaces the modulo.
  size_t wrap(size_t pos) const { return pos >= data_.size() ? pos - data_.size() : pos; }

  std::vector<double> data_;
  size_t capacity_ = 0;
  size_t head_ = 0;  // index of the oldest sample
  size_t size_ = 0;
  uint64_t generation_ = 0;
};

// One throughput scenario: value (Kbps) with probability.
struct ThroughputScenario {
  double kbps = 0.0;
  double probability = 0.0;
};

// Synthesizes a discrete scenario fan centered on `center_kbps` with
// relative spread `cv`: positions spread over [-cv, +cv], triangular
// probability profile (normalized), 30 Kbps floor. Used by planner tests
// and benches to generate forecast distributions of arbitrary width.
std::vector<ThroughputScenario> triangular_scenarios(size_t count, double center_kbps,
                                                     double cv);

class ThroughputPredictor {
 public:
  virtual ~ThroughputPredictor() = default;

  // Records an observed chunk download. The sample is the RTT-free goodput
  // (bytes over wire time) the timeline engine measures — folding request
  // dead time into the estimate would bias it low on small chunks.
  virtual void observe(double kbps) = 0;

  // Point estimate for the next chunks (Kbps).
  virtual double predict_kbps() const = 0;

  // Discrete distribution, written into a caller-provided buffer (cleared
  // first). MPC controllers call this every decide(); reusing one buffer
  // keeps the hot path free of heap allocation. Defaults to a single point
  // scenario.
  virtual void scenarios_into(std::vector<ThroughputScenario>& out) const;

  // Convenience wrapper returning a fresh vector.
  std::vector<ThroughputScenario> scenarios() const {
    std::vector<ThroughputScenario> out;
    scenarios_into(out);
    return out;
  }

  virtual void reset() = 0;
};

// Harmonic mean of the last `window` observations — robust to outliers and
// the standard choice in MPC ABR. The window holds each observation's
// reciprocal, taken once at observe(), so a prediction is one sum and one
// division; the summands and their order are those of summing 1 / kbps.
class HarmonicMeanPredictor : public ThroughputPredictor {
 public:
  explicit HarmonicMeanPredictor(size_t window = 5, double initial_kbps = 1000.0);
  void observe(double kbps) override;
  double predict_kbps() const override;
  void reset() override;

  // Change stamp of the retained observation window (see
  // SampleWindow::generation).
  uint64_t window_generation() const { return inverse_history_.generation(); }

 private:
  double initial_kbps_;
  SampleWindow inverse_history_;  // 1 / kbps of each retained observation
};

class EwmaPredictor : public ThroughputPredictor {
 public:
  explicit EwmaPredictor(double alpha = 0.3, double initial_kbps = 1000.0);
  void observe(double kbps) override;
  double predict_kbps() const override;
  void reset() override;

 private:
  double alpha_;
  double initial_kbps_;
  double estimate_;
  bool seeded_ = false;
};

// Fugu-style probabilistic predictor: harmonic-mean point estimate spread
// into {low, expected, high} scenarios whose spread tracks the coefficient of
// variation of recent observations.
class ScenarioPredictor : public ThroughputPredictor {
 public:
  explicit ScenarioPredictor(size_t window = 8, double initial_kbps = 1000.0);
  void observe(double kbps) override;
  double predict_kbps() const override;
  void scenarios_into(std::vector<ThroughputScenario>& out) const override;
  void reset() override;

 private:
  HarmonicMeanPredictor point_;
  SampleWindow history_;
  // scenarios_into() memo: the fan is a pure function of the two sample
  // windows (and the fixed initial estimate), so when neither window
  // changed since the last call — keyed by their combined generation
  // stamps — the three cached scenarios are replayed bit-for-bit instead
  // of recomputing the mean/variance/sqrt spread. observe() and reset()
  // bump the stamps, so no explicit invalidation is needed, and the key
  // check is O(1) rather than a rehash of both windows per call.
  mutable uint64_t cache_point_gen_ = 0;
  mutable uint64_t cache_history_gen_ = 0;
  mutable bool cache_valid_ = false;
  mutable double cache_kbps_[3] = {0.0, 0.0, 0.0};
  mutable double cache_prob_[3] = {0.0, 0.0, 0.0};
};

}  // namespace sensei::net
