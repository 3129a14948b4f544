#include "manifest/hls.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vodx::manifest {
namespace {

TEST(HlsMaster, SerializeParseRoundTrip) {
  HlsMasterPlaylist master;
  master.variants.push_back({800e3, std::nullopt, {640, 360}, "video/0/p.m3u8"});
  master.variants.push_back({2.4e6, 1.2e6, {1280, 720}, "video/1/p.m3u8"});

  HlsMasterPlaylist parsed = HlsMasterPlaylist::parse(master.serialize());
  ASSERT_EQ(parsed.variants.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.variants[0].bandwidth, 800e3);
  EXPECT_FALSE(parsed.variants[0].average_bandwidth.has_value());
  EXPECT_EQ(parsed.variants[0].resolution.height, 360);
  EXPECT_EQ(parsed.variants[0].uri, "video/0/p.m3u8");
  ASSERT_TRUE(parsed.variants[1].average_bandwidth.has_value());
  EXPECT_DOUBLE_EQ(*parsed.variants[1].average_bandwidth, 1.2e6);
}

TEST(HlsMaster, ParsesQuotedAttributesWithCommas) {
  const char* text =
      "#EXTM3U\n"
      "#EXT-X-STREAM-INF:BANDWIDTH=1000000,CODECS=\"avc1.4d,mp4a.40\","
      "RESOLUTION=854x480\n"
      "v.m3u8\n";
  HlsMasterPlaylist parsed = HlsMasterPlaylist::parse(text);
  ASSERT_EQ(parsed.variants.size(), 1u);
  EXPECT_EQ(parsed.variants[0].resolution.width, 854);
}

TEST(HlsMaster, RejectsMissingHeader) {
  EXPECT_THROW(HlsMasterPlaylist::parse("#EXT-X-STREAM-INF:BANDWIDTH=1\nv\n"),
               ParseError);
}

TEST(HlsMaster, RejectsStreamInfWithoutBandwidth) {
  EXPECT_THROW(HlsMasterPlaylist::parse(
                   "#EXTM3U\n#EXT-X-STREAM-INF:RESOLUTION=1x1\nv\n"),
               ParseError);
}

TEST(HlsMaster, RejectsDanglingStreamInf) {
  EXPECT_THROW(
      HlsMasterPlaylist::parse("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1\n"),
      ParseError);
}

TEST(HlsMedia, SerializeParseRoundTrip) {
  HlsMediaPlaylist playlist;
  playlist.target_duration = 4;
  playlist.segments.push_back({4.0, "seg0.ts", std::nullopt});
  playlist.segments.push_back({3.5, "seg1.ts", std::nullopt});

  HlsMediaPlaylist parsed = HlsMediaPlaylist::parse(playlist.serialize());
  ASSERT_EQ(parsed.segments.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.target_duration, 4.0);
  EXPECT_NEAR(parsed.segments[1].duration, 3.5, 1e-3);
  EXPECT_EQ(parsed.segments[1].uri, "seg1.ts");
}

TEST(HlsMedia, ByteRangeRoundTrip) {
  HlsMediaPlaylist playlist;
  playlist.target_duration = 4;
  playlist.segments.push_back({4.0, "media.ts", ByteRange{100, 299}});
  HlsMediaPlaylist parsed = HlsMediaPlaylist::parse(playlist.serialize());
  ASSERT_TRUE(parsed.segments[0].byterange.has_value());
  EXPECT_EQ(parsed.segments[0].byterange->first, 100);
  EXPECT_EQ(parsed.segments[0].byterange->last, 299);
}

TEST(HlsMedia, SerializedFormHasEndlist) {
  HlsMediaPlaylist playlist;
  playlist.target_duration = 4;
  playlist.segments.push_back({4.0, "seg0.ts", std::nullopt});
  EXPECT_NE(playlist.serialize().find("#EXT-X-ENDLIST"), std::string::npos);
  EXPECT_NE(playlist.serialize().find("#EXT-X-PLAYLIST-TYPE:VOD"),
            std::string::npos);
}

TEST(HlsMedia, IgnoresContentAfterEndlist) {
  const char* text =
      "#EXTM3U\n#EXT-X-TARGETDURATION:4\n#EXTINF:4.0,\nseg0.ts\n"
      "#EXT-X-ENDLIST\n#EXTINF:4.0,\nghost.ts\n";
  HlsMediaPlaylist parsed = HlsMediaPlaylist::parse(text);
  EXPECT_EQ(parsed.segments.size(), 1u);
}

TEST(HlsMedia, RejectsUriWithoutExtinf) {
  EXPECT_THROW(
      HlsMediaPlaylist::parse("#EXTM3U\n#EXT-X-TARGETDURATION:4\nseg0.ts\n"),
      ParseError);
}

TEST(HlsMedia, RejectsTrailingExtinf) {
  EXPECT_THROW(
      HlsMediaPlaylist::parse("#EXTM3U\n#EXTINF:4.0,\n"),
      ParseError);
}

TEST(HlsMedia, RejectsInvalidByteRange) {
  for (const char* range : {"0@0", "-5@10", "5@-1", "9223372036854775807@1"}) {
    EXPECT_THROW(HlsMediaPlaylist::parse(
                     std::string("#EXTM3U\n#EXTINF:4.0,\n#EXT-X-BYTERANGE:") +
                     range + "\nseg.ts\n"),
                 ParseError)
        << range;
  }
}

TEST(HlsMedia, TargetDurationCeilsFractional) {
  HlsMediaPlaylist playlist;
  playlist.target_duration = 3.2;
  playlist.segments.push_back({3.2, "s.ts", std::nullopt});
  EXPECT_NE(playlist.serialize().find("#EXT-X-TARGETDURATION:4"),
            std::string::npos);
}

}  // namespace
}  // namespace vodx::manifest
