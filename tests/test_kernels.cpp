// Kernel-row gates (util/kernels.h): every row cross-checked bit-for-bit
// against the scalar helper or production statement it batches
// (qoe::chunk_quality, WhittleIndexAbr::level_index,
// the planners' download-time and buffer dynamics,
// net::triangular_scenarios), plus the order-pinned reductions.
// The download-time, normalization and no-stall rows run at every length
// 0..19 on inputs salted with FP edge values.
#include "util/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "abr/whittle.h"
#include "media/dataset.h"
#include "media/encoder.h"
#include "net/predictor.h"
#include "qoe/chunk_quality.h"

namespace sensei::util {
namespace {

constexpr size_t kMaxLen = 19;  // rows of length 0..19 straddle the planner's cutoff of 8
constexpr int kTrials = 16;

bool bits_equal(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

// Random doubles over several magnitudes, salted with the FP edge values
// (NaN, +/-0, denormals, infinities) the bit-identity contract covers.
class ValueGen {
 public:
  explicit ValueGen(uint64_t seed) : rng_(seed) {}

  double next() {
    switch (rng_() % 10) {
      case 0: {
        static const double edges[] = {
            0.0,
            -0.0,
            std::numeric_limits<double>::quiet_NaN(),
            -std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::denorm_min(),
            -std::numeric_limits<double>::denorm_min(),
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::min(),
            -std::numeric_limits<double>::min(),
        };
        return edges[rng_() % (sizeof(edges) / sizeof(edges[0]))];
      }
      case 1:
        return uniform(-1e-6, 1e-6);
      case 2:
        return uniform(-1e9, 1e9);
      default:
        return uniform(-60.0, 60.0);
    }
  }

  // Strictly finite positive draw (for parameters a NaN would make vacuous).
  double positive(double lo, double hi) { return uniform(lo, hi); }

  // Like next() but never NaN: scalar *parameters* stay NaN-free because two
  // NaNs meeting in a commutable op (x * scale, q + add) select a payload by
  // operand order, which IEEE leaves open and compilers freely commute. Row
  // data still carries NaNs — one-NaN propagation is order-independent.
  double param() {
    double v = next();
    while (std::isnan(v)) v = next();
    return v;
  }

  void fill(std::vector<double>& v, size_t n) {
    v.resize(n);
    for (size_t i = 0; i < n; ++i) v[i] = next();
  }

 private:
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  }
  std::mt19937_64 rng_;
};

// Runs `row(n, out)` at every length 0..kMaxLen and checks out[0, n) bit for
// bit against `expect(n, i)`, and that nothing at or past n was written.
template <typename Row, typename Expect>
void check_every_length(const Row& row, const Expect& expect) {
  constexpr double kUntouched = -12345.678;
  std::vector<double> out(kMaxLen + 1);
  for (size_t n = 0; n <= kMaxLen; ++n) {
    std::fill(out.begin(), out.end(), kUntouched);
    row(n, out.data());
    for (size_t i = 0; i < n; ++i) {
      const double want = expect(n, i);
      ASSERT_TRUE(bits_equal(&out[i], &want, 1))
          << "n=" << n << " i=" << i << " got=" << out[i] << " want=" << want;
    }
    for (size_t i = n; i <= kMaxLen; ++i) {
      ASSERT_EQ(out[i], kUntouched) << "n=" << n << " wrote past the row at i=" << i;
    }
  }
}

// ---- cross-checks against the scalar helpers the kernels batch -------------

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
  // The fixed-(vq, prev) variant against the same helper, per stall row.
  kernels::chunk_quality_stall_row(
      vq[0], prev[0], qoe::chunk_quality(vq[0], 0.0, prev[0], params), stall.data(),
      kMaxLen, params.beta_rebuf, params.rebuf_saturation, params.beta_switch,
      params.floor, out.data());
  for (size_t i = 0; i < kMaxLen; ++i) {
    const double expect = stall[i] > 0.0
                              ? qoe::chunk_quality(vq[0], stall[i], prev[0], params)
                              : qoe::chunk_quality(vq[0], 0.0, prev[0], params);
    EXPECT_EQ(out[i], expect) << "i=" << i;
  }
}

TEST(KernelCrossCheck, StepBufferMatchesPlannerDynamics) {
  constexpr double kMaxBufferS = 30.0;  // the planners' cap
  ValueGen gen(22);
  std::vector<double> dl(kMaxLen), buf(kMaxLen), stall(kMaxLen);
  for (size_t i = 0; i < kMaxLen; ++i) dl[i] = gen.positive(0.0, 40.0);
  for (double extra : {0.0, 1.5}) {
    const double b0 = 7.25, tau = 2.0;
    kernels::step_buffer_stall_row(b0, dl.data(), kMaxLen, extra, tau, kMaxBufferS,
                                   buf.data(), stall.data());
    for (size_t i = 0; i < kMaxLen; ++i) {
      // The ViPlanner recursion's exact statements.
      double b = b0, s = 0.0;
      if (dl[i] > b) {
        s = dl[i] - b;
        b = 0.0;
      } else {
        b -= dl[i];
      }
      if (extra > 0.0) {
        b += extra;
        s += extra;
      }
      b = std::min(b + tau, kMaxBufferS);
      EXPECT_EQ(buf[i], b) << "i=" << i << " extra=" << extra;
      EXPECT_EQ(stall[i], s) << "i=" << i << " extra=" << extra;
    }
  }
}

TEST(KernelCrossCheck, WhittleRowMatchesLevelIndex) {
  media::EncodedVideo video = media::Encoder().encode(
      media::SourceVideo::generate("KernelWhittle", media::Genre::kSports, 30));
  abr::WhittleIndexAbr wh;
  const abr::WhittleConfig& cfg = wh.config();
  sim::AbrObservation obs;
  obs.video = &video;
  obs.num_chunks = video.num_chunks();
  obs.next_chunk = 3;
  obs.last_level = 1;
  obs.buffer_s = 6.5;
  const double budget_kbps = 2400.0;
  const size_t L = video.ladder().level_count();
  std::vector<double> bytes(L), vq(L), prev(L), idx(L);
  for (size_t l = 0; l < L; ++l) {
    bytes[l] = static_cast<double>(video.size_bytes(obs.next_chunk, l));
    vq[l] = video.visual_quality(obs.next_chunk, l);
    prev[l] = video.visual_quality(obs.next_chunk - 1, obs.last_level);
  }
  kernels::whittle_index_row(bytes.data(), vq.data(), prev.data(), L,
                             budget_kbps * 1000.0, obs.buffer_s, cfg.headroom,
                             cfg.drain_penalty, cfg.chunk.beta_rebuf,
                             cfg.chunk.rebuf_saturation, cfg.chunk.beta_switch,
                             idx.data());
  for (size_t l = 0; l < L; ++l) {
    EXPECT_EQ(idx[l], wh.level_index(obs, l, obs.buffer_s, budget_kbps))
        << "level=" << l;
  }
}

TEST(KernelCrossCheck, TriangularFanMatchesScenarioFan) {
  for (size_t count : {1u, 2u, 5u, 16u}) {
    const auto fan = net::triangular_scenarios(count, 3100.0, 0.4);
    ASSERT_EQ(fan.size(), count);
    std::vector<double> kbps(count), prob(count);
    kernels::triangular_fan(count, 3100.0, 0.4, 30.0, kbps.data(), prob.data());
    const double total = kernels::sum_row(prob.data(), count);
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(fan[i].kbps, kbps[i]) << "count=" << count << " i=" << i;
      EXPECT_EQ(fan[i].probability, prob[i] / total)
          << "count=" << count << " i=" << i;
    }
  }
}

TEST(KernelCrossCheck, OrderPinnedPrimitives) {
  ValueGen gen(24);
  std::vector<double> x(kMaxLen);
  for (size_t i = 0; i < kMaxLen; ++i) x[i] = gen.positive(-10.0, 10.0);
  x[4] = x[9] = x[12];  // force ties for the argmax tie-break check
  double sum = 0.0;
  size_t best = 0;
  for (size_t i = 0; i < kMaxLen; ++i) {
    sum += x[i];
    if (x[i] > x[best]) best = i;
  }
  EXPECT_EQ(kernels::sum_row(x.data(), kMaxLen), sum);
  EXPECT_EQ(kernels::argmax_strict_row(x.data(), kMaxLen), best);
  EXPECT_EQ(kernels::argmax_strict_row(x.data(), 0), 0u);
  // No x[i] > NaN holds, so a NaN at index 0 is returned; a later NaN never wins.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double nan_first[] = {nan, 1.0, 2.0};
  EXPECT_EQ(kernels::argmax_strict_row(nan_first, 3), 0u);
  const double nan_later[] = {1.0, nan, 2.0, nan};
  EXPECT_EQ(kernels::argmax_strict_row(nan_later, 4), 2u);
}

// The planners' download-time statement: bits / max(1, kbps) + 0.08.
TEST(KernelCrossCheck, DivAddRowMatchesPlannerDownloadTime) {
  ValueGen gen(25);
  std::vector<double> kbps;
  for (int t = 0; t < kTrials; ++t) {
    SCOPED_TRACE("t=" + std::to_string(t));
    gen.fill(kbps, kMaxLen);
    const double bits = gen.param();
    check_every_length(
        [&](size_t n, double* out) {
          kernels::div_add_row(bits, kbps.data(), n, 1.0, 0.08, out);
        },
        [&](size_t, size_t i) { return bits / std::max(1.0, kbps[i]) + 0.08; });
  }
}

// net::triangular_scenarios normalizes its fan in place: prob[i] / sum(prob).
TEST(KernelCrossCheck, DivScalarRowMatchesScenarioNormalization) {
  ValueGen gen(27);
  std::vector<double> prob(kMaxLen);
  for (int t = 0; t < kTrials; ++t) {
    SCOPED_TRACE("t=" + std::to_string(t));
    for (double& p : prob) p = gen.positive(0.0, 2.0);
    const auto total = [&](size_t n) {
      double acc = 0.0;
      for (size_t i = 0; i < n; ++i) acc += prob[i];
      return acc;
    };
    check_every_length(
        [&](size_t n, double* out) {
          std::copy(prob.begin(), prob.begin() + static_cast<std::ptrdiff_t>(n), out);
          kernels::div_scalar_row(out, n, kernels::sum_row(out, n), out);
        },
        [&](size_t n, size_t i) { return prob[i] / total(n); });
  }
}

// planner.cpp fills its no-stall quality tables with these rows in place of
// qoe::chunk_quality(vq, 0.0, prev): the zero stall term must drop out
// bit-exactly, for the production parameters and for random finite ones.
TEST(KernelCrossCheck, NoStallRowsMatchChunkQualityAtZeroStall) {
  ValueGen gen(28);
  std::vector<double> vq, prev;
  for (int t = 0; t < kTrials; ++t) {
    SCOPED_TRACE("t=" + std::to_string(t));
    gen.fill(vq, kMaxLen);
    gen.fill(prev, kMaxLen);
    qoe::ChunkQualityParams p;
    if (t > 0) {
      p.beta_rebuf = gen.positive(0.0, 3.0);
      p.rebuf_saturation = gen.positive(0.0, 1.0);
      p.beta_switch = gen.positive(0.0, 2.0);
      p.floor = gen.positive(-2.0, 0.0);
    }
    const double cvq = gen.param(), cprev = gen.param();
    check_every_length(
        [&](size_t n, double* out) {
          kernels::chunk_quality_nostall_row(vq.data(), n, cprev, p.beta_switch, p.floor,
                                             out);
        },
        [&](size_t, size_t i) { return qoe::chunk_quality(vq[i], 0.0, cprev, p); });
    check_every_length(
        [&](size_t n, double* out) {
          kernels::chunk_quality_nostall_prev_row(cvq, prev.data(), n, p.beta_switch,
                                                  p.floor, out);
        },
        [&](size_t, size_t i) { return qoe::chunk_quality(cvq, 0.0, prev[i], p); });
  }
}

// The ScenarioPredictor memo (PR 10) must be invisible: scenarios_into on an
// unchanged window replays the exact fan, and a new observation refreshes it.
TEST(KernelCrossCheck, ScenarioPredictorCacheIsTransparent) {
  net::ScenarioPredictor cached(8), plain(8);
  std::vector<net::ThroughputScenario> a, b, c;
  std::mt19937_64 rng(77);
  for (int i = 0; i < 40; ++i) {
    const double kbps = 500.0 + static_cast<double>(rng() % 4000);
    cached.observe(kbps);
    plain.observe(kbps);
    cached.scenarios_into(a);
    cached.scenarios_into(b);  // unchanged window: served from the memo
    plain.scenarios_into(c);
    ASSERT_EQ(a.size(), 3u);
    for (size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(a[s].kbps, b[s].kbps) << i;
      EXPECT_EQ(a[s].probability, b[s].probability) << i;
      EXPECT_EQ(a[s].kbps, c[s].kbps) << i;
      EXPECT_EQ(a[s].probability, c[s].probability) << i;
    }
  }
}

}  // namespace
}  // namespace sensei::util
