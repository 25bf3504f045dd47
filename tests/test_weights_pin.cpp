// Cross-commit pin for SENSEI's crowdsourced sensitivity weights. The
// two-step profiles of all 16 Table-1 videos (Experiments::profiles(), the
// weights every weight-aware figure reads) and the exhaustive no-pruning
// profiles of the first two videos are written in exact hex-float form —
// every weight plus each profile's cost, elapsed time, rendering, rating and
// participant counts and step-2 chunk count — and reduced to one FNV-1a
// digest. Any change to the campaign simulator, the rendering series or the
// regression that moves one bit of one weight or one cost fails here. The
// in-process differential test (Regression.SparseNnlsMatchesDenseOracle)
// compares two solvers of one build; this file compares a build with the
// ones before it. On a mismatch the test prints the first rows, so a
// deliberate re-pin can diff them.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/experiments.h"
#include "crowd/scheduler.h"

namespace sensei::core {
namespace {

std::string profile_rows(const crowd::SensitivityProfile& p) {
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%a %a %zu %zu %zu %zu\n", p.cost_usd, p.elapsed_minutes,
                p.renderings_rated, p.ratings_collected, p.participants, p.step2_chunks);
  out += buf;
  for (double w : p.weights) {
    std::snprintf(buf, sizeof(buf), "%a ", w);
    out += buf;
  }
  out += '\n';
  return out;
}

std::string fnv1a_hex(const std::string& text) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

TEST(WeightsPin, ProfilesMatchPinnedDigest) {
  const auto& profiles = Experiments::profiles();
  ASSERT_EQ(profiles.size(), 16u);
  std::string text;
  for (size_t v = 0; v < profiles.size(); ++v) {
    EXPECT_EQ(Experiments::weights()[v], profiles[v].profile.weights);
    text += profile_rows(profiles[v].profile);
  }
  crowd::Scheduler scheduler(Experiments::oracle());
  for (size_t v = 0; v < 2; ++v) {
    text += profile_rows(scheduler.profile_exhaustive(Experiments::videos()[v]));
  }
  EXPECT_EQ(fnv1a_hex(text), "20a3488b31c22d95") << text.substr(0, 2000);
}

}  // namespace
}  // namespace sensei::core
