#include "crowd/campaign.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "media/dataset.h"

namespace sensei::crowd {
namespace {

class CampaignTest : public ::testing::Test {
 protected:
  media::EncodedVideo clip_ = media::Encoder().encode(media::Dataset::soccer1_clip());
  GroundTruthQoE oracle_;
  sim::RenderedVideo reference_ = sim::RenderedVideo::pristine(clip_);

  std::vector<sim::RenderedVideo> make_series() {
    return sim::rebuffer_series(clip_, 1.0);
  }
};

TEST_F(CampaignTest, CollectsRequestedRatings) {
  Campaign campaign(oracle_, RaterConfig(), CampaignConfig(), 1);
  auto result = campaign.run(make_series(), reference_, 8);
  ASSERT_EQ(result.mos.size(), clip_.num_chunks());
  for (size_t count : result.rating_counts) EXPECT_GE(count, 8u);
  EXPECT_GT(result.participants_recruited, 0u);
  EXPECT_GT(result.cost_usd, 0.0);
  EXPECT_GT(result.elapsed_minutes, 0.0);
}

// Reaching max_participants before every rendering has its ratings must not
// return made-up MOS values for the renderings left short.
TEST_F(CampaignTest, ParticipantCapShortOfRatingsThrows) {
  CampaignConfig cfg;
  cfg.max_participants = 1;
  Campaign campaign(oracle_, RaterConfig(), cfg, 1);
  try {
    campaign.run(make_series(), reference_, 10);
    ADD_FAILURE() << "a capped campaign returned normally";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("max_participants (1)"), std::string::npos) << what;
    EXPECT_NE(what.find("6 of 6 renderings short of 10"), std::string::npos) << what;
  }
}

TEST_F(CampaignTest, MosTracksOracleOrdering) {
  Campaign campaign(oracle_, RaterConfig(), CampaignConfig(), 2);
  auto series = make_series();
  auto result = campaign.run(series, reference_, 25);
  // The most damaging incident position (the goal, chunk 3) must receive a
  // lower MOS than the least damaging one.
  double goal_mos = result.mos[3];
  double replay_mos = result.mos[5];
  EXPECT_LT(goal_mos, replay_mos);
}

TEST_F(CampaignTest, ReferenceMosIsHigh) {
  Campaign campaign(oracle_, RaterConfig(), CampaignConfig(), 3);
  auto result = campaign.run(make_series(), reference_, 10);
  EXPECT_GT(result.reference_mos, 0.6);
}

TEST_F(CampaignTest, SpammersAreRejected) {
  RaterConfig all_spam;
  all_spam.spammer_fraction = 0.5;
  CampaignConfig cfg;
  cfg.max_participants = 4000;
  Campaign campaign(oracle_, all_spam, cfg, 4);
  auto result = campaign.run(make_series(), reference_, 5);
  // With half the pool spamming, a large share of participants is rejected.
  EXPECT_GT(result.participants_rejected, result.participants_recruited / 4);
}

TEST_F(CampaignTest, CostScalesWithRatingDepth) {
  Campaign c1(oracle_, RaterConfig(), CampaignConfig(), 5);
  Campaign c2(oracle_, RaterConfig(), CampaignConfig(), 5);
  auto cheap = c1.run(make_series(), reference_, 4);
  auto deep = c2.run(make_series(), reference_, 16);
  EXPECT_GT(deep.cost_usd, cheap.cost_usd * 2.5);
}

TEST_F(CampaignTest, CostMatchesHourlyRate) {
  Campaign campaign(oracle_, RaterConfig(), CampaignConfig(), 6);
  auto result = campaign.run(make_series(), reference_, 10);
  // Cost must equal watched minutes at $10/h.
  EXPECT_NEAR(result.cost_usd, result.watched_video_minutes * 10.0 / 60.0, 1e-6);
}

TEST_F(CampaignTest, InvalidArgumentsThrow) {
  Campaign campaign(oracle_, RaterConfig(), CampaignConfig(), 7);
  EXPECT_THROW(campaign.run({}, reference_, 5), std::runtime_error);
  EXPECT_THROW(campaign.run(make_series(), reference_, 0), std::runtime_error);
}

// A survey is the reference plus K - 1 renderings: K = 1 rates nothing and
// would recruit max_participants for no rating, K = 0 would underflow K - 1.
TEST_F(CampaignTest, SurveyOfFewerThanTwoVideosThrows) {
  for (size_t k : {size_t{0}, size_t{1}}) {
    CampaignConfig cfg;
    cfg.videos_per_participant = k;
    try {
      Campaign campaign(oracle_, RaterConfig(), cfg, 7);
      ADD_FAILURE() << "K = " << k << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("got " + std::to_string(k)), std::string::npos)
          << e.what();
    }
  }
  CampaignConfig two;
  two.videos_per_participant = 2;
  Campaign campaign(oracle_, RaterConfig(), two, 7);
  auto result = campaign.run(make_series(), reference_, 3);
  for (size_t count : result.rating_counts) EXPECT_GE(count, 3u);
}

TEST_F(CampaignTest, DeterministicForSeed) {
  Campaign a(oracle_, RaterConfig(), CampaignConfig(), 42);
  Campaign b(oracle_, RaterConfig(), CampaignConfig(), 42);
  auto ra = a.run(make_series(), reference_, 6);
  auto rb = b.run(make_series(), reference_, 6);
  EXPECT_EQ(ra.mos, rb.mos);
  EXPECT_EQ(ra.cost_usd, rb.cost_usd);
}

}  // namespace
}  // namespace sensei::crowd
