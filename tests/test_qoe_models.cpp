#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <string>

#include "crowd/ground_truth.h"
#include "media/dataset.h"
#include "qoe/lstm_qoe.h"
#include "qoe/p1203.h"
#include "crowd/weights.h"
#include "qoe/sensei_qoe.h"
#include "util/stats.h"

namespace sensei::qoe {
namespace {

// Shared fixture: a training set of degraded renderings with oracle MOS.
class QoeModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    video_ = media::Encoder().encode(
        media::SourceVideo::generate("QoeTrain", media::Genre::kSports, 400));
    crowd::GroundTruthQoE oracle;
    auto base = sim::RenderedVideo::pristine(video_);
    train_videos_.push_back(base);
    for (size_t c = 0; c < video_.num_chunks(); c += 2) {
      train_videos_.push_back(base.with_rebuffering(c, 1.0 + (c % 3)));
      train_videos_.push_back(base.with_bitrate_drop(c, 2, c % 2, video_));
    }
    for (const auto& v : train_videos_) train_mos_.push_back(oracle.score(v));
  }

  media::EncodedVideo video_;
  std::vector<sim::RenderedVideo> train_videos_;
  std::vector<double> train_mos_;
};

// KSQI is the additive model with no weights.
TEST_F(QoeModelTest, KsqiPrefersHigherBitrate) {
  SenseiQoeModel model;
  auto high = sim::RenderedVideo::pristine(video_);
  auto low = high.with_bitrate_drop(0, video_.num_chunks(), 0, video_);
  EXPECT_GT(model.predict(high), model.predict(low));
}

TEST_F(QoeModelTest, KsqiPenalizesRebuffering) {
  SenseiQoeModel model;
  auto clean = sim::RenderedVideo::pristine(video_);
  auto stalled = clean.with_rebuffering(5, 4.0);
  EXPECT_GT(model.predict(clean), model.predict(stalled));
}

TEST_F(QoeModelTest, KsqiIsPositionAgnostic) {
  // The defining blindness the paper attacks: same incident, different
  // position, same KSQI score.
  SenseiQoeModel model;
  auto base = sim::RenderedVideo::pristine(video_);
  // 1-second stall keeps per-chunk quality above the floor on every chunk,
  // so the additive mean is exactly position-independent.
  double a = model.predict(base.with_rebuffering(3, 1.0));
  double b = model.predict(base.with_rebuffering(40, 1.0));
  EXPECT_NEAR(a, b, 1e-9);
}

TEST_F(QoeModelTest, KsqiTrainingImprovesCalibration) {
  SenseiQoeModel model;
  auto before = util::mean_relative_error(model.predict_all(train_videos_), train_mos_);
  model.train(train_videos_, train_mos_);
  auto after = util::mean_relative_error(model.predict_all(train_videos_), train_mos_);
  EXPECT_LE(after, before + 1e-9);
  EXPECT_GT(model.scale(), 0.0);
}

TEST_F(QoeModelTest, KsqiPredictionsInUnitRange) {
  SenseiQoeModel model;
  model.train(train_videos_, train_mos_);
  for (const auto& v : train_videos_) {
    double q = model.predict(v);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
}

TEST_F(QoeModelTest, P1203FeatureVectorShape) {
  auto f = P1203Model::features(sim::RenderedVideo::pristine(video_));
  EXPECT_EQ(f.size(), 11u);
  // Pristine: zero stall ratio, zero events, zero switches.
  EXPECT_DOUBLE_EQ(f[3], 0.0);
  EXPECT_DOUBLE_EQ(f[4], 0.0);
  EXPECT_DOUBLE_EQ(f[6], 0.0);
}

TEST_F(QoeModelTest, P1203TrainsAndDiscriminates) {
  P1203Model model;
  model.train(train_videos_, train_mos_);
  auto clean = sim::RenderedVideo::pristine(video_);
  auto bad = clean.with_rebuffering(10, 4.0).with_rebuffering(20, 4.0).with_rebuffering(30,
                                                                                        4.0);
  EXPECT_GT(model.predict(clean), model.predict(bad));
}

TEST_F(QoeModelTest, P1203UntrainedFallback) {
  P1203Model model;
  EXPECT_NEAR(model.predict(sim::RenderedVideo::pristine(video_)), 0.6, 1e-9);
}

TEST_F(QoeModelTest, LstmQoeTrainsToUsefulAccuracy) {
  // Train on session-like compound degradations (the regime the §2.2 study
  // uses); single-incident series barely move MOS on long videos and carry
  // no learnable signal.
  crowd::GroundTruthQoE oracle;
  auto base = sim::RenderedVideo::pristine(video_);
  std::vector<sim::RenderedVideo> sessions;
  std::vector<double> mos;
  for (int k = 0; k < 40; ++k) {
    sim::RenderedVideo v = base;
    int incidents = k % 7;
    for (int j = 0; j < incidents; ++j) {
      size_t chunk = static_cast<size_t>((k * 13 + j * 29) % video_.num_chunks());
      if (j % 2) {
        v = v.with_rebuffering(chunk, 1.0 + j);
      } else {
        v = v.with_bitrate_drop(chunk, 4, j % 2, video_);
      }
    }
    sessions.push_back(v);
    mos.push_back(oracle.score(v));
  }
  LstmQoeModel model(10, 60, 0.01, 26);
  model.train(sessions, mos);
  EXPECT_TRUE(model.trained());
  auto acc = util::pearson(model.predict_all(sessions), mos);
  EXPECT_GT(acc, 0.5);
}

TEST_F(QoeModelTest, LstmQoeFeatureSequenceShape) {
  auto seq = LstmQoeModel::features(sim::RenderedVideo::pristine(video_));
  ASSERT_EQ(seq.size(), video_.num_chunks());
  EXPECT_EQ(seq[0].size(), 5u);
}

// Eq. 2 at unit weights is Eq. 1 bit for bit: the sum of 1 * q_i is the sum
// of q_i, and the sum of ones is the count.
TEST_F(QoeModelTest, SenseiModelWithUnitWeightsMatchesKsqi) {
  SenseiQoeModel ksqi;
  SenseiQoeModel sensei(std::vector<double>(video_.num_chunks(), 1.0));
  for (const auto& v : train_videos_) EXPECT_EQ(sensei.raw_score(v), ksqi.raw_score(v));
  ksqi.train(train_videos_, train_mos_);
  sensei.train(train_videos_, train_mos_);
  EXPECT_EQ(sensei.scale(), ksqi.scale());
  EXPECT_EQ(sensei.offset(), ksqi.offset());
  for (const auto& v : train_videos_) EXPECT_EQ(sensei.predict(v), ksqi.predict(v));
}

TEST_F(QoeModelTest, SenseiModelWeightsIncidentPosition) {
  std::vector<double> w(video_.num_chunks(), 1.0);
  w[3] = 2.0;
  w[40] = 0.2;
  crowd::normalize_mean_one(w);
  SenseiQoeModel model(w);
  auto base = sim::RenderedVideo::pristine(video_);
  double hurt_weighty = model.predict(base.with_rebuffering(3, 1.0));
  double hurt_light = model.predict(base.with_rebuffering(40, 1.0));
  EXPECT_LT(hurt_weighty, hurt_light);
}

TEST_F(QoeModelTest, SenseiModelMoreAccurateThanKsqiOnSensitivityData) {
  // Give SENSEI the true sensitivity as weights: it should beat KSQI on the
  // oracle-labelled series (the paper's central accuracy claim).
  std::vector<double> w = video_.source().true_sensitivity();
  crowd::normalize_mean_one(w);
  SenseiQoeModel sensei(w);
  SenseiQoeModel ksqi;
  sensei.train(train_videos_, train_mos_);
  ksqi.train(train_videos_, train_mos_);
  double sensei_plcc = util::pearson(sensei.predict_all(train_videos_), train_mos_);
  double ksqi_plcc = util::pearson(ksqi.predict_all(train_videos_), train_mos_);
  EXPECT_GT(sensei_plcc, ksqi_plcc);
}

TEST_F(QoeModelTest, SenseiModelShortClipFallsBackToUnitWeight) {
  SenseiQoeModel model(std::vector<double>(3, 1.5));  // profile shorter than video
  EXPECT_NO_THROW(model.predict(sim::RenderedVideo::pristine(video_)));
}

// A training set whose MOS vector does not match its renderings is a caller
// bug: every trainable model names both sizes instead of staying untrained.
// Too few (matching) samples remain a silent no-op.
TEST_F(QoeModelTest, TrainRejectsMismatchedSizes) {
  std::vector<double> short_mos(train_mos_.begin(), train_mos_.end() - 1);
  const std::string sizes = std::to_string(train_videos_.size()) + " videos but " +
                            std::to_string(short_mos.size()) + " MOS values";
  SenseiQoeModel ksqi;
  P1203Model p1203;
  LstmQoeModel lstm(4, 1, 0.01, 3);
  for (QoeModel* model : std::initializer_list<QoeModel*>{&ksqi, &p1203, &lstm}) {
    try {
      model->train(train_videos_, short_mos);
      ADD_FAILURE() << model->name() << " accepted mismatched sizes";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(sizes), std::string::npos) << e.what();
    }
    std::vector<sim::RenderedVideo> two(train_videos_.begin(), train_videos_.begin() + 2);
    EXPECT_NO_THROW(model->train(two, {train_mos_[0], train_mos_[1]})) << model->name();
  }
  EXPECT_EQ(ksqi.scale(), 1.0);
  EXPECT_EQ(ksqi.offset(), 0.0);
  EXPECT_FALSE(lstm.trained());
  EXPECT_NEAR(p1203.predict(train_videos_[0]), 0.6, 1e-9);
}

TEST(SenseiQoeModel, EmptyWeightsAreKsqi) {
  EXPECT_EQ(SenseiQoeModel().name(), "KSQI");
  EXPECT_EQ(SenseiQoeModel(std::vector<double>{}).name(), "KSQI");
  EXPECT_EQ(SenseiQoeModel(std::vector<double>(3, 1.0)).name(), "SENSEI");
}

}  // namespace
}  // namespace sensei::qoe
