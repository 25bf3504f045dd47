#include "qoe/metrics.h"

#include <gtest/gtest.h>

#include "media/dataset.h"
#include "qoe/sensei_qoe.h"

namespace sensei::qoe {
namespace {

TEST(Metrics, EvaluateModelComputesAllFields) {
  auto video = media::Encoder().encode(media::Dataset::soccer1_clip());
  auto base = sim::RenderedVideo::pristine(video);
  std::vector<sim::RenderedVideo> videos = {base, base.with_rebuffering(3, 2.0),
                                            base.with_rebuffering(1, 4.0)};
  std::vector<double> truth = {0.9, 0.5, 0.4};
  SenseiQoeModel model;  // no weights: KSQI
  ModelAccuracy acc = evaluate_model(model, videos, truth);
  EXPECT_EQ(acc.model_name, "KSQI");
  EXPECT_GT(acc.plcc, 0.5);  // KSQI ranks these correctly
  EXPECT_GT(acc.srcc, 0.4);
  EXPECT_GE(acc.mean_relative_error, 0.0);
  EXPECT_GE(acc.rmse, 0.0);
}

TEST(Metrics, DiscordantPairsAllAgree) {
  std::vector<AbrRankingCell> cells = {{{0.5, 0.7, 0.9}, {0.1, 0.2, 0.3}}};
  EXPECT_DOUBLE_EQ(discordant_pair_fraction(cells), 0.0);
}

TEST(Metrics, DiscordantPairsAllDisagree) {
  std::vector<AbrRankingCell> cells = {{{0.5, 0.7}, {0.7, 0.5}}};
  EXPECT_DOUBLE_EQ(discordant_pair_fraction(cells), 1.0);
}

TEST(Metrics, DiscordantPairsMixedCells) {
  std::vector<AbrRankingCell> cells = {
      {{0.5, 0.7}, {0.1, 0.2}},  // concordant
      {{0.5, 0.7}, {0.2, 0.1}},  // discordant
  };
  EXPECT_DOUBLE_EQ(discordant_pair_fraction(cells), 0.5);
}

TEST(Metrics, DiscordantPairsSkipTiesAndBadCells) {
  std::vector<AbrRankingCell> cells = {
      {{0.5, 0.5}, {0.1, 0.2}},       // tie in truth -> skipped
      {{0.5, 0.7}, {0.3, 0.3}},       // tie in prediction -> skipped
      {{0.5, 0.7, 0.9}, {0.1, 0.2}},  // size mismatch -> skipped
  };
  EXPECT_DOUBLE_EQ(discordant_pair_fraction(cells), 0.0);
}

TEST(Metrics, EmptyCellsAreSafe) {
  EXPECT_DOUBLE_EQ(discordant_pair_fraction({}), 0.0);
}

}  // namespace
}  // namespace sensei::qoe
