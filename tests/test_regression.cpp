#include "util/regression.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

#include "oracles/dense_nnls.h"
#include "util/rng.h"

namespace sensei::util {
namespace {

// The sparse form of dense rows: every entry but +0.0 and -0.0.
std::vector<SparseRow> sparse_rows(const std::vector<std::vector<double>>& dense) {
  std::vector<SparseRow> rows(dense.size());
  for (size_t i = 0; i < dense.size(); ++i) {
    for (size_t a = 0; a < dense[i].size(); ++a) {
      if (dense[i][a] != 0.0) rows[i].push_back({a, dense[i][a]});
    }
  }
  return rows;
}

std::vector<double> fit_dense(const std::vector<std::vector<double>>& rows,
                              const std::vector<double>& y, double ridge_lambda = 0.0,
                              int iterations = 200) {
  return fit_nonnegative_least_squares(sparse_rows(rows), rows[0].size(), y, ridge_lambda,
                                       iterations);
}

TEST(Regression, NonNegativeRecoversPositiveTruth) {
  // True weights all positive and noiseless: NNLS recovers them.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  Rng rng(8);
  const std::vector<double> truth = {0.5, 2.0, 1.0};
  for (int i = 0; i < 60; ++i) {
    std::vector<double> x = {rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)};
    double target = 0.0;
    for (size_t k = 0; k < truth.size(); ++k) target += truth[k] * x[k];
    rows.push_back(x);
    y.push_back(target);
  }
  auto w = fit_dense(rows, y, 1e-6);
  ASSERT_EQ(w.size(), truth.size());
  for (size_t k = 0; k < truth.size(); ++k) EXPECT_NEAR(w[k], truth[k], 1e-3);
}

TEST(Regression, NonNegativeClampsNegativeTruth) {
  // y = -2*x: the best non-negative coefficient is 0.
  std::vector<std::vector<double>> rows;
  std::vector<double> y;
  for (int i = 1; i <= 20; ++i) {
    rows.push_back({static_cast<double>(i)});
    y.push_back(-2.0 * i);
  }
  auto w = fit_dense(rows, y);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_DOUBLE_EQ(w[0], 0.0);
}

TEST(Regression, NonNegativeHandlesSparseRows) {
  // Diagonal design (each row touches one coordinate) — the structure used
  // by SENSEI's weight inference after differencing.
  std::vector<std::vector<double>> rows = {
      {0.9, 0.0, 0.0}, {0.0, 0.9, 0.0}, {0.0, 0.0, 0.9}};
  std::vector<double> y = {0.45, 0.9, 0.09};
  auto w = fit_dense(rows, y, 1e-9, 500);
  EXPECT_NEAR(w[0], 0.5, 1e-5);
  EXPECT_NEAR(w[1], 1.0, 1e-5);
  EXPECT_NEAR(w[2], 0.1, 1e-5);
}

// An entry whose column is past the last one, equal to its predecessor's or
// below it throws, naming the row.
TEST(Regression, NonNegativeMalformedRowsThrow) {
  const std::vector<double> y = {1.0, 2.0};
  const std::vector<std::vector<SparseRow>> malformed = {
      {{{0, 1.0}, {1, 2.0}}, {{2, 3.0}}},            // column out of range
      {{{0, 1.0}, {1, 2.0}}, {{1, 3.0}, {0, 4.0}}},  // descending
      {{{0, 1.0}, {1, 2.0}}, {{1, 3.0}, {1, 4.0}}},  // repeated
  };
  for (const std::vector<SparseRow>& rows : malformed) {
    try {
      fit_nonnegative_least_squares(rows, 2, y);
      ADD_FAILURE() << "no throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("row 1 "), std::string::npos) << e.what();
    }
  }
  // The same entries in range and ascending solve.
  EXPECT_EQ(fit_nonnegative_least_squares({{{0, 1.0}, {1, 2.0}}, {{0, 4.0}, {1, 3.0}}}, 2, y)
                .size(),
            2u);
}

TEST(Regression, NonNegativeShortTargetsThrow) {
  std::vector<std::vector<double>> rows = {{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_THROW(fit_dense(rows, {1.0}), std::runtime_error);
}

// The sparse solver against the dense reference it replaced, bit for bit on
// every coefficient, over the designs weight inference and its edge cases
// produce. The oracle takes each design's dense rows; the solver takes their
// sparse form, which drops every +0.0 and -0.0 entry.
TEST(Regression, SparseNnlsMatchesDenseOracle) {
  struct Design {
    const char* name;
    std::vector<std::vector<double>> rows;
    std::vector<double> y;
    double ridge_lambda;
    int iterations;
  };
  std::vector<Design> designs;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const size_t d = static_cast<size_t>(rng.uniform_int(1, 12));
    const size_t n = static_cast<size_t>(rng.uniform_int(1, 80));

    // Dense random rows, like the recovery tests above.
    Design dense{"dense", {}, {}, 1e-6, 200};
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> x(d);
      for (double& v : x) v = rng.uniform(-1.0, 1.0);
      dense.rows.push_back(x);
      dense.y.push_back(rng.uniform(-2.0, 2.0));
    }
    designs.push_back(dense);

    // The profiler's banded rows: a rebuffering row touches one chunk, a
    // bitrate drop the chunk and the switch into the next.
    const size_t chunks = static_cast<size_t>(rng.uniform_int(2, 60));
    Design banded{"banded", {}, {}, 0.05, 300};
    for (size_t i = 0; i < 3 * chunks; ++i) {
      std::vector<double> x(chunks, 0.0);
      const size_t c = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(chunks) - 1));
      x[c] = rng.uniform(0.05, 1.5);
      if (c + 1 < chunks && rng.chance(0.5)) x[c + 1] = rng.uniform(-0.3, 0.3);
      banded.rows.push_back(x);
      banded.y.push_back(x[c] * rng.uniform(0.2, 3.0) + rng.normal(0.0, 0.05));
    }
    designs.push_back(banded);

    // Sparse rows with all-zero columns, some of their zeros negative.
    Design holes{"zero columns", {}, {}, 0.01, 100};
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> x(d + 2, 0.0);
      for (size_t a = 0; a < x.size(); ++a) {
        if (a % 3 == 1) {
          x[a] = rng.chance(0.5) ? -0.0 : 0.0;
        } else if (rng.chance(0.4)) {
          x[a] = rng.uniform(-1.0, 1.0);
        } else if (rng.chance(0.3)) {
          x[a] = -0.0;
        }
      }
      holes.rows.push_back(x);
      holes.y.push_back(rng.uniform(-1.0, 1.0));
    }
    designs.push_back(holes);

    // No ridge: the all-zero columns have a zero diagonal and are skipped.
    Design unridged = holes;
    unridged.name = "ridge_lambda = 0";
    unridged.ridge_lambda = 0.0;
    designs.push_back(unridged);

    // Negative targets drive coordinates onto the zero bound.
    Design negative = banded;
    negative.name = "negative targets";
    for (double& t : negative.y) t = -std::abs(t);
    designs.push_back(negative);

    // No sweep at all: the starting point comes back.
    Design idle = dense;
    idle.name = "iterations = 0";
    idle.iterations = 0;
    designs.push_back(idle);
  }

  for (const Design& design : designs) {
    const std::vector<double> sparse = fit_dense(design.rows, design.y, design.ridge_lambda,
                                                 design.iterations);
    const std::vector<double> dense = oracles::dense_nonnegative_least_squares(
        design.rows, design.y, design.ridge_lambda, design.iterations);
    ASSERT_EQ(sparse.size(), dense.size()) << design.name;
    EXPECT_EQ(std::memcmp(sparse.data(), dense.data(), sparse.size() * sizeof(double)), 0)
        << design.name << ": " << design.rows.size() << " rows x " << sparse.size();
  }
}

}  // namespace
}  // namespace sensei::util
