// Cross-commit pin for SenseiQoeModel's affine calibration (§7.3, Fig. 15).
// KSQI and a weighted SENSEI model are trained on the oracle-scored rebuffer
// and bitrate-drop series of two Table-1 videos; their hex-float scale,
// offset and held-out predictions are reduced to one FNV-1a digest, in the
// style of test_weights_pin.cpp. Two more fits cover the other shapes of the
// 2x2 ridge normal equations: raw scores of both signs (no row swap in the
// elimination) and raw scores that are all equal (nearly singular). Any
// change to the calibration arithmetic that moves one bit fails here.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>

#include "crowd/ground_truth.h"
#include "crowd/weights.h"
#include "media/dataset.h"
#include "media/encoder.h"
#include "qoe/sensei_qoe.h"

namespace sensei::qoe {
namespace {

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

struct Sums {
  double s = 0.0;
  double ss = 0.0;
};

Sums raw_sums(const SenseiQoeModel& model, const std::vector<sim::RenderedVideo>& videos) {
  Sums out;
  for (const auto& v : videos) {
    const double s = model.raw_score(v);
    out.s += s;
    out.ss += s * s;
  }
  return out;
}

// One fit: the model's calibration followed by its predictions on `held_out`.
std::string fit_rows(SenseiQoeModel model, const std::vector<sim::RenderedVideo>& train,
                     const std::vector<double>& mos,
                     const std::vector<sim::RenderedVideo>& held_out) {
  model.train(train, mos);
  std::string out;
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s %a %a\n", model.name().c_str(), model.scale(),
                model.offset());
  out += buf;
  for (const auto& v : held_out) {
    std::snprintf(buf, sizeof(buf), "%a ", model.predict(v));
    out += buf;
  }
  out += '\n';
  return out;
}

TEST(CalibrationPin, FitsMatchPinnedDigest) {
  const crowd::GroundTruthQoE oracle;
  const media::EncodedVideo soccer = media::Encoder().encode(media::Dataset::by_name("Soccer1"));
  const media::EncodedVideo basket = media::Encoder().encode(media::Dataset::by_name("Basket1"));

  std::vector<sim::RenderedVideo> train;
  for (const auto* video : {&soccer, &basket}) {
    for (auto& v : sim::rebuffer_series(*video, 1.0)) train.push_back(std::move(v));
    for (auto& v : sim::bitrate_drop_series(*video, 0, 1)) train.push_back(std::move(v));
  }
  std::vector<double> mos;
  for (const auto& v : train) mos.push_back(oracle.score(v));

  std::vector<sim::RenderedVideo> held_out;
  const sim::RenderedVideo soccer_ref = sim::RenderedVideo::pristine(soccer);
  for (size_t chunk : {size_t{0}, size_t{12}, size_t{31}, size_t{49}}) {
    held_out.push_back(soccer_ref.with_rebuffering(chunk, 2.5));
    held_out.push_back(soccer_ref.with_bitrate_drop(chunk, 1, 1, soccer));
  }
  held_out.push_back(soccer_ref.with_startup_delay(3.0));

  std::vector<double> weights = soccer.source().true_sensitivity();
  crowd::normalize_mean_one(weights);
  const SenseiQoeModel ksqi;
  const SenseiQoeModel sensei(weights);

  // Raw scores in (0, 1): |sum s| > sum s^2 + ridge, so the elimination
  // pivots on the second row.
  const Sums natural = raw_sums(ksqi, train);
  ASSERT_GT(std::abs(natural.s), natural.ss + 1e-6);

  // Stall-floored renderings (the first k of 50 chunks stalled for 10 s,
  // k >= 40) score below zero; mixed with the natural set, the first row
  // stays the pivot.
  std::vector<sim::RenderedVideo> mixed = train;
  std::vector<double> mixed_mos = mos;
  for (size_t k = 40; k <= soccer.num_chunks(); ++k) {
    sim::RenderedVideo stalled = soccer_ref;
    for (size_t i = 0; i < k; ++i) stalled = stalled.with_rebuffering(i, 10.0);
    for (int copy = 0; copy < 10; ++copy) {
      mixed.push_back(stalled);
      mixed_mos.push_back(oracle.score(stalled));
    }
  }
  const Sums both_signs = raw_sums(ksqi, mixed);
  ASSERT_LE(std::abs(both_signs.s), both_signs.ss + 1e-6);

  // Every raw score equal: only the ridge keeps the system solvable.
  std::vector<sim::RenderedVideo> same(8, soccer_ref);
  std::vector<double> same_mos;
  for (size_t j = 0; j < same.size(); ++j) same_mos.push_back(mos[j]);

  std::string text;
  text += fit_rows(sensei, train, mos, held_out);
  text += fit_rows(ksqi, train, mos, held_out);
  text += fit_rows(sensei, mixed, mixed_mos, held_out);
  text += fit_rows(ksqi, mixed, mixed_mos, held_out);
  text += fit_rows(ksqi, same, same_mos, held_out);
  EXPECT_EQ(fnv1a_hex(text), "4b767328d9e1b45e") << text;
}

}  // namespace
}  // namespace sensei::qoe
