#include "http/origin_server.h"

#include <gtest/gtest.h>

#include "common/error.h"

#include "manifest/dash_mpd.h"
#include "manifest/hls.h"
#include "manifest/smooth.h"
#include "media/sidx.h"
#include "testing/fixtures.h"

namespace vodx::http {
namespace {

using vodx::testing::small_asset;

TEST(OriginHls, ServesMasterAndMediaPlaylists) {
  OriginServer origin(small_asset(), {manifest::Protocol::kHls});
  Response master = origin.handle({Method::kGet, "/master.m3u8", {}});
  ASSERT_TRUE(master.ok());
  manifest::HlsMasterPlaylist parsed =
      manifest::HlsMasterPlaylist::parse(master.body);
  ASSERT_EQ(parsed.variants.size(), 3u);

  Response playlist =
      origin.handle({Method::kGet, "/video/0/playlist.m3u8", {}});
  ASSERT_TRUE(playlist.ok());
  manifest::HlsMediaPlaylist media =
      manifest::HlsMediaPlaylist::parse(playlist.body);
  EXPECT_EQ(media.segments.size(), 15u);  // 60 s / 4 s
}

TEST(OriginHls, SegmentSizesMatchAsset) {
  media::VideoAsset asset = small_asset();
  const Bytes expected = asset.video_track(1).segment(3).size;
  OriginServer origin(std::move(asset), {manifest::Protocol::kHls});
  Response seg = origin.handle({Method::kGet, "/video/1/seg3.ts", {}});
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(seg.payload_size, expected);
  EXPECT_TRUE(seg.body.empty());  // media bytes are size-only
}

TEST(OriginHls, HeadRevealsSizeWithoutPayload) {
  media::VideoAsset asset = small_asset();
  const Bytes expected = asset.video_track(0).segment(0).size;
  OriginServer origin(std::move(asset), {manifest::Protocol::kHls});
  Response head = origin.handle({Method::kHead, "/video/0/seg0.ts", {}});
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(head.head_content_length, expected);
  EXPECT_EQ(head.payload_size, 0);
}

TEST(OriginHls, UnknownUrlIs404) {
  OriginServer origin(small_asset(), {manifest::Protocol::kHls});
  EXPECT_EQ(origin.handle({Method::kGet, "/nope", {}}).status, 404);
}

TEST(OriginDashSidx, MpdPointsAtIndexRange) {
  OriginConfig config;
  config.protocol = manifest::Protocol::kDash;
  config.dash_index = manifest::DashIndexMode::kSidx;
  OriginServer origin(small_asset(60, true), config);

  Response mpd_response = origin.handle({Method::kGet, "/manifest.mpd", {}});
  ASSERT_TRUE(mpd_response.ok());
  manifest::DashMpd mpd = manifest::DashMpd::parse(mpd_response.body);
  ASSERT_EQ(mpd.adaptation_sets.size(), 2u);  // video + audio
  const auto& rep = mpd.adaptation_sets[0].representations[0];
  ASSERT_TRUE(rep.index_range.has_value());

  // Fetch and parse the sidx through a range request.
  Response sidx_response = origin.handle(
      {Method::kGet, "/video/0/media.mp4", rep.index_range});
  ASSERT_EQ(sidx_response.status, 206);
  media::SidxBox box = media::parse_sidx(sidx_response.body);
  EXPECT_EQ(box.references.size(), 15u);
}

TEST(OriginDashSidx, MediaRangeHasSizeButNoBody) {
  OriginConfig config;
  config.protocol = manifest::Protocol::kDash;
  OriginServer origin(small_asset(), config);
  Response r = origin.handle(
      {Method::kGet, "/video/0/media.mp4", manifest::ByteRange{5000, 9999}});
  ASSERT_EQ(r.status, 206);
  EXPECT_EQ(r.payload_size, 5000);
}

TEST(OriginDashSidx, OutOfRangeIs416) {
  OriginConfig config;
  config.protocol = manifest::Protocol::kDash;
  OriginServer origin(small_asset(), config);
  Response r = origin.handle({Method::kGet, "/video/0/media.mp4",
                              manifest::ByteRange{0, 1'000'000'000}});
  EXPECT_EQ(r.status, 416);
}

TEST(OriginDashList, RangesInMpdMatchSegments) {
  media::VideoAsset asset = small_asset();
  const media::Segment seg = asset.video_track(2).segment(5);
  OriginConfig config;
  config.protocol = manifest::Protocol::kDash;
  config.dash_index = manifest::DashIndexMode::kSegmentList;
  OriginServer origin(std::move(asset), config);

  manifest::DashMpd mpd = manifest::DashMpd::parse(
      origin.handle({Method::kGet, "/manifest.mpd", {}}).body);
  const auto& rep = mpd.adaptation_sets[0].representations[2];
  ASSERT_FALSE(rep.index_range.has_value());
  ASSERT_EQ(rep.segments.size(), 15u);
  EXPECT_EQ(rep.segments[5].media_range.first, seg.offset);
  EXPECT_EQ(rep.segments[5].media_range.length(), seg.size);
}

TEST(OriginSmooth, FragmentsResolvable) {
  media::VideoAsset asset = small_asset(60, true, 3);
  const Bps bitrate = asset.video_track(1).declared_bitrate();
  const Bytes expected = asset.video_track(1).segment(2).size;
  OriginServer origin(std::move(asset), {manifest::Protocol::kSmooth});

  manifest::SmoothManifest manifest = manifest::SmoothManifest::parse(
      origin.handle({Method::kGet, "/manifest.ism", {}}).body);
  const auto& video = manifest.stream_indexes[0];
  std::string url;
  video.fragment_url(bitrate, video.chunk_start_ticks(2), url);
  url = "/" + url;
  Response r = origin.handle({Method::kGet, url, {}});
  ASSERT_TRUE(r.ok()) << url;
  EXPECT_EQ(r.payload_size, expected);
}

TEST(OriginSmooth, ChunkPastAShorterTrackIsUnknown) {
  // The chunk timeline is the first track's; a track with fewer, longer
  // segments has no fragment at that timeline's later chunks.
  const auto track = [](Bps bitrate, int count, Seconds duration) {
    std::vector<media::Segment> segments(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      segments[static_cast<std::size_t>(i)] = {i, duration, 1000 + i, 0};
    }
    return media::Track(std::to_string(bitrate), media::ContentType::kVideo,
                        bitrate, {640, 360}, std::move(segments));
  };
  media::VideoAsset asset("uneven", {track(500'000, 15, 4),
                                     track(1'000'000, 10, 6)});
  OriginServer origin(std::move(asset), {manifest::Protocol::kSmooth});
  const manifest::SmoothManifest manifest = manifest::SmoothManifest::parse(
      origin.handle({Method::kGet, "/manifest.ism", {}}).body);
  const auto& video = manifest.stream_indexes[0];
  ASSERT_EQ(video.chunk_durations.size(), 15u);
  std::string url;
  video.fragment_url(1'000'000, video.chunk_start_ticks(9), url);
  EXPECT_TRUE(origin.handle({Method::kGet, "/" + url, {}}).ok()) << url;
  video.fragment_url(1'000'000, video.chunk_start_ticks(12), url);
  const Response past = origin.handle({Method::kGet, "/" + url, {}});
  EXPECT_EQ(past.status, 404) << url;
}

TEST(OriginEncrypted, ManifestIsOpaqueButSidxStaysReadable) {
  OriginConfig config;
  config.protocol = manifest::Protocol::kDash;
  config.encrypt_manifest = true;
  OriginServer origin(small_asset(), config);

  Response mpd = origin.handle({Method::kGet, "/manifest.mpd", {}});
  ASSERT_TRUE(mpd.ok());
  EXPECT_TRUE(is_scrambled(mpd.body));
  EXPECT_THROW(manifest::DashMpd::parse(mpd.body), ParseError);
  // With the app key it decodes.
  manifest::DashMpd parsed =
      manifest::DashMpd::parse(unscramble_manifest(mpd.body));
  EXPECT_EQ(parsed.adaptation_sets.size(), 1u);
}

TEST(Scramble, RoundTrips) {
  const std::string plain = "<MPD>secret</MPD>";
  const std::string blob = scramble_manifest(plain);
  EXPECT_NE(blob.find("VODXENC1"), std::string::npos);
  EXPECT_EQ(blob.find("secret"), std::string::npos);
  EXPECT_EQ(unscramble_manifest(blob), plain);
  EXPECT_THROW(unscramble_manifest("not scrambled"), ParseError);
}

TEST(OriginHlsDeathTest, RefusesSeparateAudio) {
  EXPECT_DEATH(OriginServer(small_asset(60, true), {manifest::Protocol::kHls}),
               "mux");
}

}  // namespace
}  // namespace vodx::http
