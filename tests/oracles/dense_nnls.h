// The original dense non-negative least-squares solver, verbatim: a d x d
// Gram matrix G = X^T X + lambda I and c = X^T y accumulated over every
// entry of every row, then `iterations` projected coordinate-descent sweeps
// that subtract every off-diagonal g_ab * w_b. It is the bit-for-bit
// reference for util::fit_nonnegative_least_squares, which visits only the
// nonzeros (tests/test_regression.cpp). It lives in the test-only oracle
// library and assumes well-formed input: equal-length rows, one target per
// row.
#pragma once

#include <vector>

namespace sensei::oracles {

std::vector<double> dense_nonnegative_least_squares(const std::vector<std::vector<double>>& rows,
                                                    const std::vector<double>& y,
                                                    double ridge_lambda, int iterations);

}  // namespace sensei::oracles
