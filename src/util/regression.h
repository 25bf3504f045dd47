// Non-negative ridge least squares, the solver of SENSEI's per-chunk
// sensitivity weights (paper Eq. 2: Q_j = sum_i w_i q_ij, solved over rated
// renderings j; see crowd/weights.h).
#pragma once

#include <cstddef>
#include <vector>

namespace sensei::util {

// One nonzero entry of a sparse row: its column and value.
struct SparseEntry {
  size_t col = 0;
  double value = 0.0;
};
// A row of the design matrix as its nonzero entries, in ascending column
// order.
using SparseRow = std::vector<SparseEntry>;

// Fits constrained non-negative coefficients, one per column of the
// `num_cols`-column design whose rows are `rows`, by projected coordinate
// descent from w = 0.5, skipping coordinates whose Gram diagonal is <= 0, for
// at most `iterations` sweeps (fewer once a sweep changes no coordinate).
// Sensitivity weights are by definition non-negative; negative OLS solutions
// are artifacts of rating noise. The solver visits only the given entries:
// weight inference's differenced rows touch one or two chunks each, so their
// Gram matrix is banded. On finite input its result is bit-identical to the
// dense sweep over every entry of the same matrix. Throws std::runtime_error
// naming the row when an entry's column is out of range or not above the
// previous entry's, and when `y` does not hold one target per row.
std::vector<double> fit_nonnegative_least_squares(const std::vector<SparseRow>& rows,
                                                  size_t num_cols, const std::vector<double>& y,
                                                  double ridge_lambda = 0.0,
                                                  int iterations = 200);

}  // namespace sensei::util
