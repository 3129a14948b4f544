#include "player/media_source.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace vodx::player {
namespace {

using vodx::testing::small_asset;

struct SourceHarness {
  SourceHarness(media::VideoAsset asset, http::OriginConfig origin_config,
                MediaSource::Options options)
      : sim(0.01),
        link(sim, net::BandwidthTrace::constant(8e6, 120), 0.05),
        origin(std::move(asset), origin_config),
        proxy(origin),
        client(sim, link, proxy, client_options()),
        source(client, options, origin.resolution()) {}

  static http::HttpClient::Options client_options() {
    http::HttpClient::Options options;
    options.max_connections = 1;
    options.tcp.rtt = 0.05;
    return options;
  }

  manifest::Presentation resolve() {
    manifest::Presentation result;
    bool done = false;
    std::string error;
    source.resolve(
        origin.manifest_url(),
        [&](manifest::PresentationPtr p) {
          result = *p;
          done = true;
        },
        [&](const std::string& reason) { error = reason; });
    sim.run_until(30);
    EXPECT_TRUE(done) << error;
    return result;
  }

  net::Simulator sim;
  net::Link link;
  http::OriginServer origin;
  http::Proxy proxy;
  http::HttpClient client;
  MediaSource source;
};

TEST(MediaSource, HlsPresentationMatchesAsset) {
  media::VideoAsset asset = small_asset();
  const int segment_count = asset.video_track(0).segment_count();
  SourceHarness h(std::move(asset), {manifest::Protocol::kHls},
                  {manifest::Protocol::kHls});
  manifest::Presentation p = h.resolve();
  ASSERT_EQ(p.video.size(), 3u);
  EXPECT_FALSE(p.separate_audio());
  EXPECT_DOUBLE_EQ(p.video[0].declared_bitrate, 400e3);
  EXPECT_DOUBLE_EQ(p.video[2].declared_bitrate, 1.6e6);
  EXPECT_EQ(static_cast<int>(p.video[1].segments.size()), segment_count);
  EXPECT_FALSE(p.video[0].sizes_known);
  EXPECT_EQ(p.video[1].url_of(p.video[1].segments[3]), "/video/1/seg3.ts");
}

TEST(MediaSource, DashSidxExposesExactSizes) {
  media::VideoAsset asset = small_asset(60, true);
  const Bytes expected_size = asset.video_track(2).segment(7).size;
  http::OriginConfig config;
  config.protocol = manifest::Protocol::kDash;
  config.dash_index = manifest::DashIndexMode::kSidx;
  SourceHarness h(std::move(asset), config,
                  {manifest::Protocol::kDash});
  manifest::Presentation p = h.resolve();
  ASSERT_EQ(p.video.size(), 3u);
  ASSERT_EQ(p.audio.size(), 1u);
  EXPECT_TRUE(p.video[2].sizes_known);
  EXPECT_EQ(p.video[2].segments[7].size, expected_size);
  ASSERT_TRUE(p.video[2].segments[7].range.has_value());
  EXPECT_EQ(p.video[2].segments[7].range->length(), expected_size);
  // The track holds its media file's URL once for all its segments.
  EXPECT_EQ(p.video[2].media_url, "/video/2/media.mp4");
  EXPECT_TRUE(p.video[2].segments[7].url.empty());
  EXPECT_EQ(p.video[2].url_of(p.video[2].segments[7]), "/video/2/media.mp4");
}

TEST(MediaSource, DashSidxRangesAreContiguous) {
  http::OriginConfig config;
  config.protocol = manifest::Protocol::kDash;
  SourceHarness h(small_asset(), config, {manifest::Protocol::kDash});
  manifest::Presentation p = h.resolve();
  const auto& segments = p.video[0].segments;
  for (std::size_t i = 1; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i].range->first, segments[i - 1].range->last + 1);
  }
}

TEST(MediaSource, DashSegmentListNeedsNoSidxFetch) {
  http::OriginConfig config;
  config.protocol = manifest::Protocol::kDash;
  config.dash_index = manifest::DashIndexMode::kSegmentList;
  SourceHarness h(small_asset(), config, {manifest::Protocol::kDash});
  manifest::Presentation p = h.resolve();
  EXPECT_TRUE(p.video[0].sizes_known);
  // Only the MPD crossed the wire.
  EXPECT_EQ(h.proxy.log().records().size(), 1u);
}

TEST(MediaSource, DashSidxFetchesOneIndexPerTrack) {
  http::OriginConfig config;
  config.protocol = manifest::Protocol::kDash;
  SourceHarness h(small_asset(60, true), config,
                  {manifest::Protocol::kDash});
  h.resolve();
  // MPD + 3 video sidx + 1 audio sidx.
  EXPECT_EQ(h.proxy.log().records().size(), 5u);
}

TEST(MediaSource, SmoothBuildsFragmentUrls) {
  media::VideoAsset asset = small_asset(60, true, 3);
  SourceHarness h(std::move(asset), {manifest::Protocol::kSmooth},
                  {manifest::Protocol::kSmooth});
  manifest::Presentation p = h.resolve();
  ASSERT_EQ(p.video.size(), 3u);
  ASSERT_EQ(p.audio.size(), 1u);
  EXPECT_FALSE(p.video[0].sizes_known);
  // Fragment URLs resolve on the origin.
  const manifest::ClientSegment& s = p.video[1].segments[2];
  http::Response r = h.origin.handle({http::Method::kGet, s.url, {}});
  EXPECT_TRUE(r.ok()) << s.url;
}

TEST(MediaSource, EncryptedMpdNeedsKey) {
  http::OriginConfig config;
  config.protocol = manifest::Protocol::kDash;
  config.encrypt_manifest = true;
  SourceHarness h(small_asset(), config, {manifest::Protocol::kDash});
  manifest::Presentation p = h.resolve();
  EXPECT_EQ(p.video.size(), 3u);  // the app's key decodes it
}

TEST(MediaSource, ErrorCallbackOn404) {
  SourceHarness h(small_asset(), {manifest::Protocol::kHls},
                  {manifest::Protocol::kHls});
  std::string error;
  h.source.resolve(
      "/not-there.m3u8", [](manifest::PresentationPtr) { FAIL(); },
      [&](const std::string& reason) { error = reason; });
  h.sim.run_until(10);
  EXPECT_NE(error.find("404"), std::string::npos);
}

TEST(MediaSource, ManifestFetchTimeIsSimulated) {
  SourceHarness h(small_asset(), {manifest::Protocol::kHls},
                  {manifest::Protocol::kHls});
  bool done = false;
  h.source.resolve(
      h.origin.manifest_url(), [&](manifest::PresentationPtr) { done = true; },
      [](const std::string&) {});
  EXPECT_FALSE(done);  // nothing resolves synchronously
  h.sim.run_until(0.05);
  EXPECT_FALSE(done);  // manifests still in flight (4 sequential fetches)
  h.sim.run_until(10);
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace vodx::player
