#include "oracles/dense_nnls.h"

#include <algorithm>

namespace sensei::oracles {

std::vector<double> dense_nonnegative_least_squares(const std::vector<std::vector<double>>& rows,
                                                    const std::vector<double>& y,
                                                    double ridge_lambda, int iterations) {
  if (rows.empty() || rows[0].empty()) return {};
  const size_t n = rows.size();
  const size_t d = rows[0].size();

  // Precompute Gram matrix G = X^T X + lambda I and c = X^T y.
  std::vector<std::vector<double>> g(d, std::vector<double>(d, 0.0));
  std::vector<double> c(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < d; ++a) {
      c[a] += rows[i][a] * y[i];
      for (size_t b = 0; b < d; ++b) g[a][b] += rows[i][a] * rows[i][b];
    }
  }
  for (size_t a = 0; a < d; ++a) g[a][a] += ridge_lambda;

  // Coordinate descent with projection onto [0, inf).
  std::vector<double> w(d, 0.5);
  for (int it = 0; it < iterations; ++it) {
    for (size_t a = 0; a < d; ++a) {
      if (g[a][a] <= 0.0) continue;
      double grad = c[a];
      for (size_t b = 0; b < d; ++b) {
        if (b != a) grad -= g[a][b] * w[b];
      }
      w[a] = std::max(0.0, grad / g[a][a]);
    }
  }
  return w;
}

}  // namespace sensei::oracles
