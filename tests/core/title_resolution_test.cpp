// A title resolves its own manifests once (http::OriginServer::resolution())
// and every session of the title takes that result where its bytes equal the
// title's: the player's presentation and the traffic analyzer's ladders and
// request mapping. These tests pin that the shared result is exactly what
// resolving the session's bytes again gives, and that bytes which differ
// from the title's (a manifest probe, a lost resource) never reach it.
#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>

#include "core/session_factory.h"
#include "core/traffic_analyzer.h"
#include "http/http_client.h"
#include "http/interceptor.h"
#include "net/link.h"
#include "net/simulator.h"
#include "obs/profiler.h"
#include "player/media_source.h"
#include "services/content_factory.h"
#include "services/service_catalog.h"
#include "testing/analysis.h"
#include "testing/fixtures.h"

namespace vodx::core {
namespace {

constexpr Seconds kContent = 120;
constexpr Seconds kSession = 40;

/// Root manifests parsed (zone manifest.resolve) while `fn` runs.
template <typename Fn>
std::uint64_t root_parses_in(Fn&& fn) {
  obs::profiler_reset();
  obs::set_profiling_enabled(true);
  fn();
  obs::set_profiling_enabled(false);
  std::uint64_t count = 0;
  for (const obs::ZoneStats& zone : obs::profiler_report()) {
    if (zone.name == "manifest.resolve") count = zone.count;
  }
  obs::profiler_reset();
  return count;
}

struct Hosted {
  SessionResult result;
  /// Root manifests the session parsed, its title's excluded.
  std::uint64_t root_parses = 0;
  /// analyze_traffic over the session's log with no title attached.
  AnalyzedTraffic unresolved;
  manifest::Presentation presentation;
  bool shares_title_presentation = false;
};

/// Hosts one session of `config.title` (which must be set).
Hosted host(const SessionConfig& config) {
  net::Simulator sim(config.sim_settings());
  net::Link link(sim, config.trace);
  HostedSession session(sim, link, config);
  Hosted out;
  out.root_parses = root_parses_in([&] {
    session.start();
    sim.run_until(config.session_duration);
    out.result = session.finish(sim.now());
  });
  out.unresolved =
      analyze_traffic(vodx::testing::unresolved_copy(session.proxy().log()));
  out.presentation = session.player().presentation();
  const manifest::Resolution* title =
      session.proxy().origin().resolution();
  out.shares_title_presentation =
      title != nullptr &&
      &session.player().presentation() == &title->presentation();
  return out;
}

/// What a MediaSource with no title resolves from `title`'s bytes.
manifest::Presentation unresolved_presentation(
    const http::OriginServer& title, manifest::Protocol protocol,
    net::SimCore core) {
  net::SimSettings settings;
  settings.sim_core = core;
  net::Simulator sim(settings);
  net::Link link(sim, net::BandwidthTrace::constant(8e6, 60));
  http::Proxy proxy(title);
  http::HttpClient client(sim, link, proxy, {});
  player::MediaSource source(client, {protocol}, nullptr);
  manifest::PresentationPtr out;
  source.resolve(
      title.manifest_url(),
      [&](manifest::PresentationPtr p) { out = std::move(p); },
      [](const std::string& reason) { FAIL() << reason; });
  sim.run_until(30);
  EXPECT_NE(out, nullptr);
  return out != nullptr ? *out : manifest::Presentation{};
}

void expect_same_tracks(const std::vector<manifest::ClientTrack>& a,
                        const std::vector<manifest::ClientTrack>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("track " + std::to_string(i));
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_EQ(a[i].declared_bitrate, b[i].declared_bitrate);
    EXPECT_EQ(a[i].average_bandwidth, b[i].average_bandwidth);
    EXPECT_EQ(a[i].resolution, b[i].resolution);
    EXPECT_EQ(a[i].sizes_known, b[i].sizes_known);
    EXPECT_EQ(a[i].media_url, b[i].media_url);
    ASSERT_EQ(a[i].segments.size(), b[i].segments.size());
    for (std::size_t k = 0; k < a[i].segments.size(); ++k) {
      const manifest::ClientSegment& x = a[i].segments[k];
      const manifest::ClientSegment& y = b[i].segments[k];
      EXPECT_EQ(x.index, y.index);
      EXPECT_EQ(x.duration, y.duration);
      EXPECT_EQ(x.start, y.start);
      EXPECT_EQ(x.url, y.url);
      EXPECT_EQ(x.range, y.range);
      EXPECT_EQ(x.size, y.size);
    }
  }
}

TEST(TitleResolution, SharedResultEqualsUnresolvedOnEveryService) {
  SessionFactory factory;
  factory.session_duration = kSession;
  factory.content_duration = kContent;
  for (const services::ServiceSpec& spec : services::catalog()) {
    SCOPED_TRACE(spec.name);
    const auto title = std::make_shared<const http::OriginServer>(
        services::make_origin(spec, kContent, 7));
    ASSERT_NE(title->resolution(), nullptr);
    for (net::SimCore core :
         {net::SimCore::kEvent, net::SimCore::kFixedTickReference}) {
      factory.sim_core = core;
      const manifest::Presentation unresolved =
          unresolved_presentation(*title, spec.protocol, core);
      for (int profile : {3, 8}) {
        SCOPED_TRACE("profile " + std::to_string(profile));
        SessionConfig config = factory.config(spec, profile, 1, 7);
        config.title = title;
        const Hosted hosted = host(config);
        // Neither the player nor the analyzer parsed a root manifest.
        EXPECT_EQ(hosted.root_parses, 0u);
        EXPECT_TRUE(hosted.shares_title_presentation);
        expect_same_tracks(hosted.presentation.video, unresolved.video);
        expect_same_tracks(hosted.presentation.audio, unresolved.audio);
        ASSERT_FALSE(hosted.result.traffic.downloads.empty());
        vodx::testing::expect_same_traffic(hosted.result.traffic,
                                           hosted.unresolved);
      }
    }
  }
}

/// Replaces the first `key` value in `body` (HLS :BANDWIDTH=, DASH
/// bandwidth=") with `value`.
std::string rewrite_first(std::string body, const std::string& key,
                          const std::string& value) {
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return body;
  const std::size_t start = at + key.size();
  std::size_t end = start;
  while (end < body.size() && std::isdigit(static_cast<unsigned char>(
                                  body[end]))) {
    ++end;
  }
  body.replace(start, end - start, value);
  return body;
}

TEST(TitleResolution, ManifestProbeMissesTheResolution) {
  constexpr Bps kRewritten = 123456;
  for (const auto& [service, key] :
       {std::pair<std::string, std::string>{"H1", ":BANDWIDTH="},
        std::pair<std::string, std::string>{"D2", "bandwidth=\""}}) {
    SCOPED_TRACE(service);
    SessionFactory factory;
    factory.session_duration = kSession;
    factory.content_duration = kContent;
    SessionConfig config = factory.config(service, 8, 1, 7);
    config.title = std::make_shared<const http::OriginServer>(
        services::make_origin(config.spec, kContent, 7));
    const std::string root = config.spec.protocol == manifest::Protocol::kHls
                                 ? "/master.m3u8"
                                 : "/manifest.mpd";
    config.interceptors.push_back(http::transform_manifest(
        [&](const std::string& url, std::string body) {
          return url == root ? rewrite_first(std::move(body), key, "123456")
                             : body;
        }));
    const Hosted hosted = host(config);
    // The player resolved the rewritten manifest itself; the analyzer
    // resolved it once more from the wire.
    EXPECT_EQ(hosted.root_parses, 2u);
    EXPECT_FALSE(hosted.shares_title_presentation);
    ASSERT_FALSE(hosted.presentation.video.empty());
    EXPECT_EQ(hosted.presentation.video.front().declared_bitrate, kRewritten);
    const AnalyzedTraffic& traffic = hosted.result.traffic;
    ASSERT_FALSE(traffic.video_tracks.empty());
    EXPECT_EQ(traffic.video_tracks.front().declared_bitrate, kRewritten);
    vodx::testing::expect_same_traffic(traffic, hosted.unresolved);
  }
}

TEST(TitleResolution, RewrittenPlaylistMissesOnlyItsTrack) {
  SessionFactory factory;
  factory.session_duration = kSession;
  factory.content_duration = kContent;
  SessionConfig config = factory.config("H1", 8, 1, 7);
  config.title = std::make_shared<const http::OriginServer>(
      services::make_origin(config.spec, kContent, 7));
  // Drops the last segment of the lowest rung's media playlist.
  config.interceptors.push_back(http::transform_manifest(
      [](const std::string& url, std::string body) {
        if (url != "/video/0/playlist.m3u8") return body;
        const std::size_t last = body.rfind("#EXTINF:");
        const std::size_t end = body.find("#EXT-X-ENDLIST");
        body.erase(last, end - last);
        return body;
      }));
  const Hosted hosted = host(config);
  // The root manifest was the title's on both sides; only the analyzer,
  // which resolves a whole log or nothing, parsed it again.
  EXPECT_EQ(hosted.root_parses, 1u);
  EXPECT_FALSE(hosted.shares_title_presentation);
  const manifest::Presentation& title =
      config.title->resolution()->presentation();
  ASSERT_EQ(hosted.presentation.video.size(), title.video.size());
  EXPECT_EQ(hosted.presentation.video[0].segments.size() + 1,
            title.video[0].segments.size());
  for (std::size_t level = 1; level < title.video.size(); ++level) {
    EXPECT_EQ(hosted.presentation.video[level].segments.size(),
              title.video[level].segments.size());
  }
  const AnalyzedTraffic& traffic = hosted.result.traffic;
  ASSERT_FALSE(traffic.video_tracks.empty());
  EXPECT_EQ(traffic.video_tracks[0].segment_durations.size() + 1,
            title.video[0].segments.size());
  vodx::testing::expect_same_traffic(traffic, hosted.unresolved);
}

/// A session whose player tolerates variant loss, with `url` answered 404.
Hosted host_with_lost(manifest::Protocol protocol, const std::string& url) {
  SessionFactory factory;
  factory.session_duration = kSession;
  factory.content_duration = kContent;
  services::ServiceSpec spec = vodx::testing::test_spec(protocol);
  spec.player.tolerate_variant_loss = true;
  SessionConfig config =
      factory.config(spec, net::BandwidthTrace::constant(4e6, 60));
  config.title = std::make_shared<const http::OriginServer>(
      services::make_origin(spec, kContent, config.content_seed));
  faults::FaultPlan plan;
  plan.name = "lost";
  faults::ErrorFault lost;
  lost.match.url_contains = url;
  lost.status = 404;
  lost.probability = 1;
  plan.errors.push_back(lost);
  config.fault_plan = plan;
  return host(config);
}

TEST(TitleResolution, LostHlsVariantKeepsItsEmptyRung) {
  const Hosted hosted =
      host_with_lost(manifest::Protocol::kHls, "/video/1/playlist.m3u8");
  EXPECT_FALSE(hosted.shares_title_presentation);
  const std::vector<AnalyzedTrack>& ladder = hosted.result.traffic.video_tracks;
  ASSERT_EQ(ladder.size(), hosted.presentation.video.size() + 1);
  EXPECT_TRUE(ladder[1].segment_durations.empty());
  EXPECT_FALSE(ladder[0].segment_durations.empty());
  vodx::testing::expect_same_traffic(hosted.result.traffic, hosted.unresolved);
}

TEST(TitleResolution, LostDashSidxKeepsItsTrackDropped) {
  const Hosted hosted =
      host_with_lost(manifest::Protocol::kDash, "/video/1/media.mp4");
  EXPECT_FALSE(hosted.shares_title_presentation);
  const std::vector<AnalyzedTrack>& ladder = hosted.result.traffic.video_tracks;
  ASSERT_EQ(ladder.size(), hosted.presentation.video.size());
  for (std::size_t level = 0; level < ladder.size(); ++level) {
    EXPECT_EQ(ladder[level].declared_bitrate,
              hosted.presentation.video[level].declared_bitrate);
    EXPECT_FALSE(ladder[level].segment_sizes.empty());
  }
  vodx::testing::expect_same_traffic(hosted.result.traffic, hosted.unresolved);
}

}  // namespace
}  // namespace vodx::core
