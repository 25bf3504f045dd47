// Per-chunk sensitivity weight inference (§4.2).
//
// The paper fits Q_j = sum_i w_i q_ij over rated renderings j by linear
// regression. Fitting that system directly is badly conditioned: every
// rendering shares the same large "pristine" background, so the per-chunk
// columns are nearly collinear and ridge regularization flattens the weights.
// We therefore solve the equivalent *differenced* system against the
// reference rendering (the pristine video every survey already contains):
//
//   Q_ref - Q_j = sum_i w_i (q_i,ref - q_ij)
//
// whose rows are sparse (only chunks touched by rendering j's incident are
// nonzero), making the weights directly identified by each incident's MOS
// drop. Non-negative ridge regression keeps noise-induced negative weights
// out; chunks never touched by any incident keep the neutral weight 1.
// Weights are normalized to mean 1.
#pragma once

#include <vector>

#include "sim/render.h"
#include "util/regression.h"

namespace sensei::crowd {

// The differenced system of one profiling run. Each rated rendering's row is
// built once, when it is added, so a later solve over more renderings (the
// scheduler's step 2 pools step 1's rows) recomputes nothing.
class WeightSystem {
 public:
  // One weight per chunk of `reference`, the pristine rendering every survey
  // rated.
  explicit WeightSystem(const sim::RenderedVideo& reference);

  // Adds a rated rendering. A rendering identical to the reference carries no
  // information and adds no row; a clip constrains only the chunks it covers.
  void add(const sim::RenderedVideo& rendering, double mos);

  // Non-negative weights, normalized to mean 1, against the rated reference
  // MOS. All ones when no row was added.
  std::vector<double> solve(double reference_mos) const;

 private:
  std::vector<double> q_ref_;
  std::vector<util::SparseRow> rows_;  // each row's nonzero (chunk, delta)
  std::vector<double> mos_;
  std::vector<double> covered_;  // chunks each row covers, as a double
  std::vector<bool> touched_;    // chunks some row constrains
  std::vector<double> q_;        // chunk-quality buffer refilled per add()
};

// Normalizes a weight vector to mean 1 (no-op on empty/degenerate input).
void normalize_mean_one(std::vector<double>& weights);

}  // namespace sensei::crowd
