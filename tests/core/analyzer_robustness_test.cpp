// Analyzer behaviour on imperfect inputs: truncated sessions, foreign
// traffic mixed into the log, and logs caught mid-flight.
#include <gtest/gtest.h>

#include "common/error.h"
#include "core/session.h"
#include "core/traffic_analyzer.h"
#include "testing/fixtures.h"

namespace vodx::core {
namespace {

using vodx::testing::test_spec;

TEST(AnalyzerRobustness, HandlesSessionCutMidTransfer) {
  // End the session while a segment is in flight: the analyzer must not
  // count the unfinished transfer as a completed download.
  SessionConfig config;
  config.spec = test_spec(manifest::Protocol::kHls);
  config.trace = net::BandwidthTrace::constant(300e3, 60);
  config.session_duration = 17;  // likely mid-segment at this rate
  config.content_duration = 300;
  SessionResult r = run_session(config);
  for (const SegmentDownload& d : r.traffic.downloads) {
    if (!d.aborted) {
      EXPECT_GE(d.completed_at, 0) << d.index;
      EXPECT_LE(d.completed_at, 17 + 1e-6);
    }
  }
}

TEST(AnalyzerRobustness, IgnoresUnmappableRequests) {
  // Foreign records (tracking beacons, ads) in the same log must not
  // confuse the segment mapping.
  http::TrafficLog log;
  const char* master =
      "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1000000\nvideo/0/p.m3u8\n";
  const char* playlist =
      "#EXTM3U\n#EXT-X-TARGETDURATION:4\n#EXTINF:4.0,\nseg0.ts\n"
      "#EXT-X-ENDLIST\n";
  auto add = [&](const std::string& url, http::Response resp, Seconds at) {
    int id = log.open(http::Method::kGet, url, {}, at, resp, "c", 0);
    log.complete(id, at + 0.5, resp.payload_size);
  };
  add("/master.m3u8",
      http::make_ok("application/vnd.apple.mpegurl", master), 0);
  add("/video/0/p.m3u8",
      http::make_ok("application/vnd.apple.mpegurl", playlist), 1);
  add("/beacon?id=123", http::make_ok("text/plain", "ok"), 2);
  add("/ads/creative.jpg", http::make_media("image/jpeg", 50000), 2.5);
  add("/video/0/seg0.ts", http::make_media("video/mp2t", 400000), 3);
  add("/totally/unrelated.ts", http::make_media("video/mp2t", 12345), 4);

  AnalyzedTraffic traffic = analyze_traffic(log);
  ASSERT_EQ(traffic.downloads.size(), 1u);
  EXPECT_EQ(traffic.downloads[0].index, 0);
  EXPECT_EQ(traffic.downloads[0].bytes, 400000);
}

TEST(AnalyzerRobustness, ThrowsCleanlyOnGarbageManifestBody) {
  http::TrafficLog log;
  http::Response bogus =
      http::make_ok("application/dash+xml", "<MPD this is not xml");
  int id = log.open(http::Method::kGet, "/manifest.mpd", {}, 0, bogus, "c", 0);
  log.complete(id, 1, bogus.payload_size);
  EXPECT_THROW(analyze_traffic(log), ParseError);
}

TEST(AnalyzerRobustness, EmptyPlaylistSessionStillAnalyzes) {
  // A master playlist with variants that were never fetched: tracks exist
  // with declared bitrates but no durations, and nothing crashes.
  http::TrafficLog log;
  const char* master =
      "#EXTM3U\n"
      "#EXT-X-STREAM-INF:BANDWIDTH=1000000\nvideo/0/p.m3u8\n"
      "#EXT-X-STREAM-INF:BANDWIDTH=2000000\nvideo/1/p.m3u8\n";
  http::Response resp =
      http::make_ok("application/vnd.apple.mpegurl", master);
  int id = log.open(http::Method::kGet, "/master.m3u8", {}, 0, resp, "c", 0);
  log.complete(id, 0.5, resp.payload_size);
  AnalyzedTraffic traffic = analyze_traffic(log);
  ASSERT_EQ(traffic.video_tracks.size(), 2u);
  EXPECT_TRUE(traffic.downloads.empty());
  EXPECT_TRUE(traffic.video_tracks[0].segment_durations.empty());
}

TEST(AnalyzerRobustness, ClassifierReturnsNulloptBeforeManifests) {
  http::TrafficLog log;
  SegmentClassifier classifier(log);
  EXPECT_FALSE(classifier.classify("/video/0/seg0.ts", std::nullopt));
}

TEST(AnalyzerRobustness, ClassifierPicksUpManifestsAsTheyArrive) {
  http::TrafficLog log;
  SegmentClassifier classifier(log);
  const char* master =
      "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1000000\nvideo/0/p.m3u8\n";
  http::Response master_resp =
      http::make_ok("application/vnd.apple.mpegurl", master);
  int id1 = log.open(http::Method::kGet, "/master.m3u8", {}, 0, master_resp,
                     "c", 0);
  log.complete(id1, 0.5, master_resp.payload_size);
  // Master alone cannot map segments.
  EXPECT_FALSE(classifier.classify("/video/0/seg0.ts", std::nullopt));

  const char* playlist =
      "#EXTM3U\n#EXT-X-TARGETDURATION:4\n#EXTINF:4.0,\nseg0.ts\n"
      "#EXT-X-ENDLIST\n";
  http::Response playlist_resp =
      http::make_ok("application/vnd.apple.mpegurl", playlist);
  int id2 = log.open(http::Method::kGet, "/video/0/p.m3u8", {}, 1,
                     playlist_resp, "c", 1);
  log.complete(id2, 1.5, playlist_resp.payload_size);
  auto ref = classifier.classify("/video/0/seg0.ts", std::nullopt);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->index, 0);
  EXPECT_EQ(ref->type, media::ContentType::kVideo);
}

}  // namespace
}  // namespace vodx::core
