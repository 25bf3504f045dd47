// Ordinary least squares / ridge regression.
//
// Used for (a) inferring SENSEI per-chunk sensitivity weights from MOS
// ratings (paper Eq. 2: Q_j = sum_i w_i q_ij, solved over rendered videos j),
// and (b) fitting the KSQI-style linear QoE model.
#pragma once

#include <vector>

#include "util/matrix.h"

namespace sensei::util {

struct RegressionResult {
  std::vector<double> coefficients;
  double r_squared = 0.0;
};

// Fits y ~ X * beta (no intercept column is added; callers append a constant
// feature themselves if they want one). `ridge_lambda` adds L2 regularization,
// which keeps the normal equations well conditioned when rows are few or
// collinear — the common case in the crowdsourcing scheduler's first step.
RegressionResult fit_least_squares(const Matrix& x, const std::vector<double>& y,
                                   double ridge_lambda = 0.0);

// Convenience overload over row vectors.
RegressionResult fit_least_squares(const std::vector<std::vector<double>>& rows,
                                   const std::vector<double>& y, double ridge_lambda = 0.0);

// Fits constrained non-negative coefficients by projected coordinate descent
// from w = 0.5, skipping coordinates whose Gram diagonal is <= 0, for at most
// `iterations` sweeps (fewer once a sweep changes no coordinate).
// Sensitivity weights are by definition non-negative; negative OLS solutions
// are artifacts of rating noise. The solver visits only the nonzeros of
// `rows`: weight inference's differenced rows touch one or two chunks each,
// so their Gram matrix is banded. On finite input its result is bit-identical
// to the dense sweep over every entry. Throws std::runtime_error on ragged
// rows or when `y` does not hold one target per row.
std::vector<double> fit_nonnegative_least_squares(const std::vector<std::vector<double>>& rows,
                                                  const std::vector<double>& y,
                                                  double ridge_lambda = 0.0,
                                                  int iterations = 200);

}  // namespace sensei::util
