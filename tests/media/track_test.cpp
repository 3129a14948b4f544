#include "media/track.h"

#include <gtest/gtest.h>

#include "media/video_asset.h"

namespace vodx::media {
namespace {

std::vector<Segment> three_segments() {
  Segment a;
  a.duration = 2;
  a.size = 1000;
  Segment b;
  b.duration = 2;
  b.size = 3000;
  Segment c;
  c.duration = 1;
  c.size = 500;
  return {a, b, c};
}

TEST(Track, AssignsIndexesAndOffsets) {
  Track t("video/0", ContentType::kVideo, 1e6, k360p, three_segments());
  EXPECT_EQ(t.segment_count(), 3);
  EXPECT_EQ(t.segment(0).index, 0);
  EXPECT_EQ(t.segment(0).offset, 0);
  EXPECT_EQ(t.segment(1).offset, 1000);
  EXPECT_EQ(t.segment(2).offset, 4000);
  EXPECT_EQ(t.total_size(), 4500);
  EXPECT_DOUBLE_EQ(t.duration(), 5.0);
}

TEST(Track, BitrateAggregates) {
  Track t("video/0", ContentType::kVideo, 1e6, k360p, three_segments());
  EXPECT_DOUBLE_EQ(t.average_actual_bitrate(), 4500 * 8.0 / 5.0);
  EXPECT_DOUBLE_EQ(t.segment(0).actual_bitrate(), 4000);
}

TEST(TrackDeathTest, RejectsEmptyOrInvalidSegments) {
  EXPECT_DEATH(Track("x", ContentType::kVideo, 1e6, k360p, {}), "segments");
  Segment bad;
  bad.duration = 0;
  bad.size = 10;
  EXPECT_DEATH(Track("x", ContentType::kVideo, 1e6, k360p, {bad}), "duration");
}

TEST(VideoAsset, SortsLadderAscending) {
  auto seg = three_segments();
  std::vector<Track> tracks;
  tracks.emplace_back("hi", ContentType::kVideo, 3e6, k720p, seg);
  tracks.emplace_back("lo", ContentType::kVideo, 1e6, k360p, seg);
  VideoAsset asset("a", std::move(tracks));
  EXPECT_EQ(asset.video_track(0).id(), "lo");
  EXPECT_EQ(asset.video_track(1).id(), "hi");
}

TEST(VideoAsset, SeparateAudioDetection) {
  auto seg = three_segments();
  std::vector<Track> video;
  video.emplace_back("v", ContentType::kVideo, 1e6, k360p, seg);
  std::vector<Track> audio;
  audio.emplace_back("a", ContentType::kAudio, 96e3, Resolution{}, seg);
  VideoAsset with("w", video, std::move(audio));
  EXPECT_TRUE(with.separate_audio());
  VideoAsset without("wo", std::move(video));
  EXPECT_FALSE(without.separate_audio());
}

TEST(Resolution, TypicalMappingIsMonotonic) {
  EXPECT_EQ(typical_resolution_for(200e3).height, 240);
  EXPECT_EQ(typical_resolution_for(600e3).height, 360);
  EXPECT_EQ(typical_resolution_for(1.2e6).height, 480);
  EXPECT_EQ(typical_resolution_for(2.5e6).height, 720);
  EXPECT_EQ(typical_resolution_for(5e6).height, 1080);
}

}  // namespace
}  // namespace vodx::media
