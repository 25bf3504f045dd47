// Gates for the two rows left in util/kernels.h, which only the benchmark
// reads: chunk_quality_row bit for bit against qoe::chunk_quality, and
// sum_row against a left-to-right loop. The triangular fan and its
// normalization, once kernel rows, are now inline in
// net::triangular_scenarios; the last two cases pin that to its closed form.
#include "util/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "net/predictor.h"
#include "qoe/chunk_quality.h"

namespace sensei::util {
namespace {

constexpr size_t kMaxLen = 19;

class ValueGen {
 public:
  explicit ValueGen(uint64_t seed) : rng_(seed) {}

  double positive(double lo, double hi) {
    return lo + (hi - lo) * std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  }

 private:
  std::mt19937_64 rng_;
};

TEST(KernelCrossCheck, ChunkQualityMatchesQoeHelper) {
  qoe::ChunkQualityParams params;  // the production defaults
  ValueGen gen(21);
  std::vector<double> vq(kMaxLen), stall(kMaxLen), prev(kMaxLen), out(kMaxLen);
  for (size_t i = 0; i < kMaxLen; ++i) {
    vq[i] = gen.positive(0.0, 5.0);
    stall[i] = i % 3 == 0 ? 0.0 : gen.positive(-2.0, 10.0);
    prev[i] = gen.positive(0.0, 5.0);
  }
  kernels::chunk_quality_row(vq.data(), stall.data(), prev.data(), kMaxLen,
                             params.beta_rebuf, params.rebuf_saturation,
                             params.beta_switch, params.floor, out.data());
  for (size_t i = 0; i < kMaxLen; ++i) {
    const double ref = qoe::chunk_quality(vq[i], stall[i], prev[i], params);
    EXPECT_EQ(out[i], ref) << "i=" << i;
  }
}

TEST(KernelCrossCheck, OrderPinnedPrimitives) {
  ValueGen gen(24);
  std::vector<double> x(kMaxLen);
  for (size_t i = 0; i < kMaxLen; ++i) x[i] = gen.positive(-10.0, 10.0);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) sum += x[i];
    EXPECT_EQ(kernels::sum_row(x.data(), n), sum) << "n=" << n;
  }
}

// The triangular fan's position of scenario i out of count: evenly over [-1, 1].
double fan_pos(size_t i, size_t count) {
  return count == 1 ? 0.0
                    : -1.0 + 2.0 * static_cast<double>(i) / static_cast<double>(count - 1);
}

// kbps = center * (1 + cv * pos), floored at 30. The second center pushes
// the low end onto the floor.
TEST(KernelCrossCheck, TriangularFanMatchesScenarioFan) {
  EXPECT_TRUE(net::triangular_scenarios(0, 3100.0, 0.4).empty());
  for (double center : {3100.0, 40.0}) {
    for (size_t count : {1u, 2u, 3u, 5u, 8u, 16u, 19u}) {
      const auto fan = net::triangular_scenarios(count, center, 0.8);
      ASSERT_EQ(fan.size(), count);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(fan[i].kbps, std::max(30.0, center * (1.0 + 0.8 * fan_pos(i, count))))
            << "center=" << center << " count=" << count << " i=" << i;
      }
    }
  }
  EXPECT_EQ(net::triangular_scenarios(3, 40.0, 0.8).front().kbps, 30.0);
}

// Weights 1 + (1 - |pos|), summed left to right, each divided by the sum.
TEST(KernelCrossCheck, DivScalarRowMatchesScenarioNormalization) {
  for (double center : {3100.0, 40.0}) {
    for (size_t count : {1u, 2u, 3u, 5u, 8u, 16u, 19u}) {
      const auto fan = net::triangular_scenarios(count, center, 0.8);
      ASSERT_EQ(fan.size(), count);
      std::vector<double> weight(count);
      double total = 0.0;
      for (size_t i = 0; i < count; ++i) {
        weight[i] = 1.0 + (1.0 - std::fabs(fan_pos(i, count)));
        total += weight[i];
      }
      double sum = 0.0;
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(fan[i].probability, weight[i] / total)
            << "center=" << center << " count=" << count << " i=" << i;
        sum += fan[i].probability;
      }
      EXPECT_NEAR(sum, 1.0, 1e-12);
    }
  }
}

}  // namespace
}  // namespace sensei::util
