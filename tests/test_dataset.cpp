#include "media/dataset.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

namespace sensei::media {
namespace {

TEST(Dataset, Table1HasSixteenEntries) {
  const auto& t = Dataset::table1();
  EXPECT_EQ(t.size(), 16u);
  std::set<std::string> names;
  for (const auto& e : t) names.insert(e.name);
  EXPECT_EQ(names.size(), 16u);  // unique names
}

TEST(Dataset, GenreComposition) {
  int sports = 0, gaming = 0, nature = 0, animation = 0;
  for (const auto& e : Dataset::table1()) {
    switch (e.genre) {
      case Genre::kSports: ++sports; break;
      case Genre::kGaming: ++gaming; break;
      case Genre::kNature: ++nature; break;
      case Genre::kAnimation: ++animation; break;
    }
  }
  EXPECT_EQ(sports, 7);
  EXPECT_EQ(gaming, 3);
  EXPECT_EQ(nature, 3);
  EXPECT_EQ(animation, 3);
}

TEST(Dataset, TestSetGeneratesAllVideos) {
  auto videos = Dataset::test_set();
  ASSERT_EQ(videos.size(), 16u);
  for (size_t i = 0; i < videos.size(); ++i) {
    EXPECT_EQ(videos[i].name(), Dataset::table1()[i].name);
    EXPECT_GT(videos[i].num_chunks(), 0u);
  }
}

TEST(Dataset, KnownLengths) {
  auto soccer1 = Dataset::by_name("Soccer1");
  EXPECT_EQ(soccer1.length_string(), "3:20");
  auto mountain = Dataset::by_name("Mountain");
  EXPECT_EQ(mountain.length_string(), "1:24");
  auto bunny = Dataset::by_name("BigBuckBunny");
  EXPECT_EQ(bunny.length_string(), "9:56");
  EXPECT_EQ(bunny.source_dataset(), "WaterlooSQOE-III");
}

TEST(Dataset, ByNameUnknownThrows) {
  EXPECT_THROW(Dataset::by_name("NoSuchVideo"), std::runtime_error);
}

TEST(Dataset, Soccer1ClipLayout) {
  SourceVideo clip = Dataset::soccer1_clip();
  ASSERT_EQ(clip.num_chunks(), 6u);
  // Figure 1 annotations: normal gameplay, then shoot & goal, then
  // celebrate & replay.
  EXPECT_EQ(clip.chunk(0).kind, SceneKind::kNormal);
  EXPECT_EQ(clip.chunk(3).kind, SceneKind::kKeyMoment);
  EXPECT_EQ(clip.chunk(5).kind, SceneKind::kReplay);
  // The goal is the most sensitive chunk.
  for (size_t i = 0; i < clip.num_chunks(); ++i) {
    if (i != 3) {
      EXPECT_LT(clip.chunk(i).sensitivity, clip.chunk(3).sensitivity);
    }
  }
  // Replay is more dynamic than the goal yet less sensitive (the LSTM-QoE
  // failure case from the paper).
  EXPECT_GT(clip.chunk(4).motion, clip.chunk(3).motion);
  EXPECT_LT(clip.chunk(4).sensitivity, clip.chunk(3).sensitivity);
}

TEST(Dataset, ChunkDurationPropagates) {
  auto videos = Dataset::test_set(2.0);
  EXPECT_DOUBLE_EQ(videos[0].chunk_duration_s(), 2.0);
  EXPECT_EQ(videos[0].num_chunks(), 110u);  // 220 s / 2 s
}

}  // namespace
}  // namespace sensei::media
