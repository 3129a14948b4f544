#include "manifest/smooth.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vodx::manifest {
namespace {

SmoothManifest sample_manifest() {
  SmoothManifest manifest;
  manifest.duration = 9;

  SmoothStreamIndex video;
  video.type = media::ContentType::kVideo;
  video.url_template = "QualityLevels({bitrate})/Fragments(video={start time})";
  video.quality_levels.push_back({1e6, {854, 480}});
  video.quality_levels.push_back({2e6, {1280, 720}});
  video.chunk_durations = {3, 3, 3};
  manifest.stream_indexes.push_back(video);

  SmoothStreamIndex audio;
  audio.type = media::ContentType::kAudio;
  audio.url_template = "QualityLevels({bitrate})/Fragments(audio={start time})";
  audio.quality_levels.push_back({96e3, {}});
  audio.chunk_durations = {2, 2, 2, 2, 1};
  manifest.stream_indexes.push_back(audio);
  return manifest;
}

TEST(Smooth, RoundTripPreservesStreams) {
  SmoothManifest parsed = SmoothManifest::parse(sample_manifest().serialize());
  ASSERT_EQ(parsed.stream_indexes.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.duration, 9);

  const SmoothStreamIndex& video = parsed.stream_indexes[0];
  EXPECT_EQ(video.type, media::ContentType::kVideo);
  ASSERT_EQ(video.quality_levels.size(), 2u);
  EXPECT_DOUBLE_EQ(video.quality_levels[1].bitrate, 2e6);
  EXPECT_EQ(video.quality_levels[1].resolution.width, 1280);
  ASSERT_EQ(video.chunk_durations.size(), 3u);
  EXPECT_DOUBLE_EQ(video.chunk_durations[0], 3.0);

  const SmoothStreamIndex& audio = parsed.stream_indexes[1];
  EXPECT_EQ(audio.type, media::ContentType::kAudio);
  EXPECT_DOUBLE_EQ(audio.chunk_durations.back(), 1.0);
}

TEST(Smooth, FragmentUrlSubstitutesPlaceholders) {
  SmoothStreamIndex video = sample_manifest().stream_indexes[0];
  std::string url = "stale";
  video.fragment_url(1e6, 30000000, url);
  EXPECT_EQ(url, "QualityLevels(1000000)/Fragments(video=30000000)");
  video.url_template = "{bitrate}{x}{start time}{";
  video.fragment_url(2e6, 18446744073709551615u, url);
  EXPECT_EQ(url, "2000000{x}18446744073709551615{");
}

TEST(Smooth, ChunkStartTicks) {
  SmoothStreamIndex video = sample_manifest().stream_indexes[0];
  EXPECT_EQ(video.chunk_start_ticks(0), 0u);
  EXPECT_EQ(video.chunk_start_ticks(1), 30000000u);
  EXPECT_EQ(video.chunk_start_ticks(2), 60000000u);
}

TEST(Smooth, SerializedAttributesPresent) {
  const std::string text = sample_manifest().serialize();
  EXPECT_NE(text.find("SmoothStreamingMedia"), std::string::npos);
  EXPECT_NE(text.find("TimeScale=\"10000000\""), std::string::npos);
  EXPECT_NE(text.find("Chunks=\"3\""), std::string::npos);
  EXPECT_NE(text.find("QualityLevels=\"2\""), std::string::npos);
}

TEST(Smooth, RejectsWrongRoot) {
  EXPECT_THROW(SmoothManifest::parse("<MPD Duration=\"1\"/>"), ParseError);
}

TEST(Smooth, RejectsMissingDuration) {
  EXPECT_THROW(SmoothManifest::parse("<SmoothStreamingMedia/>"), ParseError);
}

}  // namespace
}  // namespace vodx::manifest
