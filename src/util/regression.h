// Non-negative ridge least squares, the solver of SENSEI's per-chunk
// sensitivity weights (paper Eq. 2: Q_j = sum_i w_i q_ij, solved over rated
// renderings j; see crowd/weights.h).
#pragma once

#include <vector>

namespace sensei::util {

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
