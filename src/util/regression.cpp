#include "util/regression.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace sensei::util {

std::vector<double> fit_nonnegative_least_squares(const std::vector<SparseRow>& rows,
                                                  size_t num_cols, const std::vector<double>& y,
                                                  double ridge_lambda, int iterations) {
  if (rows.empty() || num_cols == 0) return {};
  const size_t n = rows.size();
  const size_t d = num_cols;
  if (y.size() != n) throw std::runtime_error("regression: rows != y size");

  // X's entries by column, each column in ascending row order.
  std::vector<size_t> col_start(d + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t m = 0; m < rows[i].size(); ++m) {
      const size_t a = rows[i][m].col;
      if (a >= d || (m > 0 && a <= rows[i][m - 1].col)) {
        throw std::runtime_error("regression: row " + std::to_string(i) + " has column " +
                                 std::to_string(a) + " out of range or out of ascending order");
      }
      ++col_start[a + 1];
    }
  }
  for (size_t a = 0; a < d; ++a) col_start[a + 1] += col_start[a];
  std::vector<size_t> col_row(col_start[d]);
  std::vector<double> col_val(col_start[d]);
  std::vector<size_t> col_fill(col_start.begin(), col_start.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    for (const SparseEntry& e : rows[i]) {
      const size_t k = col_fill[e.col]++;
      col_row[k] = i;
      col_val[k] = e.value;
    }
  }

  // G = X^T X + lambda I as a diagonal plus, for each row a of G, the sorted
  // columns b != a of its nonzero off-diagonal pattern; c = X^T y. Every entry
  // sums its products in ascending row order, like the dense loop over all
  // of X would: a term with a zero factor (an entry the rows leave out) only
  // adds a signed zero to a sum that started at +0.0, which leaves it
  // unchanged.
  std::vector<double> diag(d, 0.0);
  std::vector<double> c(d, 0.0);
  std::vector<size_t> g_start(d + 1, 0);
  std::vector<size_t> g_col;
  std::vector<double> g_val;
  std::vector<double> acc(d, 0.0);
  std::vector<size_t> stamp(d, d);
  std::vector<size_t> pattern;
  for (size_t a = 0; a < d; ++a) {
    pattern.clear();
    for (size_t k = col_start[a]; k < col_start[a + 1]; ++k) {
      const size_t i = col_row[k];
      const double xa = col_val[k];
      c[a] += xa * y[i];
      diag[a] += xa * xa;
      for (const SparseEntry& e : rows[i]) {
        const size_t b = e.col;
        if (b == a) continue;
        if (stamp[b] != a) {
          stamp[b] = a;
          pattern.push_back(b);
        }
        acc[b] += xa * e.value;
      }
    }
    std::sort(pattern.begin(), pattern.end());
    for (size_t b : pattern) {
      g_col.push_back(b);
      g_val.push_back(acc[b]);
      acc[b] = 0.0;
    }
    g_start[a + 1] = g_col.size();
    diag[a] += ridge_lambda;
  }

  // Coordinate descent with projection onto [0, inf). w stays >= +0.0 (never
  // -0.0 or NaN), so each skipped term g_ab * w_b of the dense sweep is +0.0
  // and subtracting it would leave `grad` unchanged. A sweep is a function of
  // w alone, so once one changes no coordinate every later sweep would
  // repeat it: stopping there returns the same bits. The Table-1 profiles
  // reach that fixed point within 17 of their 300 sweeps.
  std::vector<double> w(d, 0.5);
  for (int it = 0; it < iterations; ++it) {
    bool changed = false;
    for (size_t a = 0; a < d; ++a) {
      if (diag[a] <= 0.0) continue;
      double grad = c[a];
      for (size_t k = g_start[a]; k < g_start[a + 1]; ++k) grad -= g_val[k] * w[g_col[k]];
      const double next = std::max(0.0, grad / diag[a]);
      if (next != w[a]) {
        w[a] = next;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return w;
}

}  // namespace sensei::util
