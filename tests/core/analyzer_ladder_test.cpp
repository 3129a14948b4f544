// The traffic analyzer's ladder against the player's own presentation: both
// read the same manifests, so on every catalog service they must agree
// level by level, and a lost variant playlist or sidx must leave the
// analyzer with the tracks the wire still describes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/session_factory.h"
#include "core/traffic_analyzer.h"
#include "net/link.h"
#include "net/simulator.h"
#include "services/service_catalog.h"
#include "testing/fixtures.h"

namespace vodx::core {
namespace {

struct Hosted {
  SessionResult result;
  manifest::Presentation presentation;
};

/// One session hosted on its own simulator and link until `duration`.
Hosted host(const SessionConfig& config, Seconds duration) {
  net::Simulator sim(config.sim_settings());
  net::Link link(sim, config.trace);
  HostedSession session(sim, link, config);
  session.start();
  sim.run_until(duration);
  Hosted out;
  out.result = session.finish(sim.now());
  out.presentation = session.player().presentation();
  return out;
}

std::vector<Seconds> durations_of(const manifest::ClientTrack& track) {
  std::vector<Seconds> out;
  for (const manifest::ClientSegment& s : track.segments) {
    out.push_back(s.duration);
  }
  return out;
}

/// The sizes the wire exposes: every segment's when the protocol gives them,
/// none otherwise.
std::vector<Bytes> sizes_of(const manifest::ClientTrack& track) {
  std::vector<Bytes> out;
  if (!track.sizes_known) return out;
  for (const manifest::ClientSegment& s : track.segments) out.push_back(s.size);
  return out;
}

void expect_same_ladder(const std::vector<AnalyzedTrack>& analyzed,
                        const std::vector<manifest::ClientTrack>& client,
                        bool declared_is_peak_actual) {
  ASSERT_EQ(analyzed.size(), client.size());
  for (std::size_t level = 0; level < client.size(); ++level) {
    SCOPED_TRACE("level " + std::to_string(level));
    const AnalyzedTrack& a = analyzed[level];
    const manifest::ClientTrack& c = client[level];
    EXPECT_EQ(a.level, static_cast<int>(level));
    EXPECT_EQ(a.type, c.type);
    if (!declared_is_peak_actual) {
      EXPECT_EQ(a.declared_bitrate, c.declared_bitrate);
      EXPECT_EQ(a.resolution, c.resolution);
    }
    EXPECT_EQ(a.segment_durations, durations_of(c));
    EXPECT_EQ(a.segment_sizes, sizes_of(c));
  }
}

TEST(AnalyzerLadder, MatchesPlayerPresentationOnEveryService) {
  SessionFactory factory;
  factory.session_duration = 30;
  for (const services::ServiceSpec& spec : services::catalog()) {
    SCOPED_TRACE(spec.name);
    const Hosted hosted = host(factory.config(spec, 14, 1, 1), 30);
    const AnalyzedTraffic& traffic = hosted.result.traffic;
    ASSERT_FALSE(hosted.presentation.video.empty());
    // Footnote 4: with the MPD encrypted, the analyzer's declared bitrate is
    // the peak actual segment bitrate, and its resolution a guess from it.
    const bool peak = traffic.manifest_encrypted;
    EXPECT_EQ(peak, spec.encrypt_manifest);
    expect_same_ladder(traffic.video_tracks, hosted.presentation.video, peak);
    expect_same_ladder(traffic.audio_tracks, hosted.presentation.audio, peak);
  }
}

/// A session whose player tolerates variant loss, with `url` answered 503
/// on every attempt.
Hosted host_with_lost(manifest::Protocol protocol, const std::string& url) {
  SessionFactory factory;
  factory.session_duration = 30;
  factory.content_duration = 120;
  services::ServiceSpec spec = vodx::testing::test_spec(protocol);
  spec.player.tolerate_variant_loss = true;
  spec.player.manifest_retries = 1;
  SessionConfig config =
      factory.config(spec, net::BandwidthTrace::constant(4e6, 60));
  faults::FaultPlan plan;
  plan.name = "lost-variant";
  faults::ErrorFault lost;
  lost.match.url_contains = url;
  lost.status = 503;
  lost.probability = 1;
  plan.errors.push_back(lost);
  config.fault_plan = plan;
  return host(config, 30);
}

TEST(AnalyzerLadder, LostHlsVariantStaysOnTheLadderWithoutSegments) {
  const Hosted hosted =
      host_with_lost(manifest::Protocol::kHls, "/video/1/playlist.m3u8");
  // The player drops the track it could not resolve...
  ASSERT_EQ(hosted.presentation.video.size(), 3u);
  for (const manifest::ClientTrack& t : hosted.presentation.video) {
    EXPECT_NE(t.declared_bitrate, 800e3);
  }
  // ...while the analyzer keeps the master playlist's variant at its level.
  const std::vector<AnalyzedTrack>& ladder = hosted.result.traffic.video_tracks;
  ASSERT_EQ(ladder.size(), 4u);
  EXPECT_EQ(ladder[1].level, 1);
  EXPECT_EQ(ladder[1].declared_bitrate, 800e3);
  EXPECT_TRUE(ladder[1].segment_durations.empty());
  EXPECT_TRUE(ladder[1].segment_sizes.empty());
  for (int level : {0, 2, 3}) {
    EXPECT_FALSE(ladder[static_cast<std::size_t>(level)]
                     .segment_durations.empty())
        << level;
  }
  for (const SegmentDownload& d : hosted.result.traffic.downloads) {
    EXPECT_NE(d.level, 1);
  }
  EXPECT_FALSE(hosted.result.traffic.downloads.empty());
}

TEST(AnalyzerLadder, LostDashSidxDropsTheTrack) {
  const Hosted hosted =
      host_with_lost(manifest::Protocol::kDash, "/video/1/media.mp4");
  ASSERT_EQ(hosted.presentation.video.size(), 3u);
  // A SegmentBase track whose sidx never crossed the wire has no segments
  // to map, so the analyzer drops it like the player does.
  const std::vector<AnalyzedTrack>& ladder = hosted.result.traffic.video_tracks;
  ASSERT_EQ(ladder.size(), 3u);
  for (std::size_t level = 0; level < ladder.size(); ++level) {
    EXPECT_EQ(ladder[level].level, static_cast<int>(level));
    EXPECT_EQ(ladder[level].declared_bitrate,
              hosted.presentation.video[level].declared_bitrate);
    EXPECT_NE(ladder[level].declared_bitrate, 800e3);
    EXPECT_FALSE(ladder[level].segment_sizes.empty());
  }
  EXPECT_EQ(hosted.result.traffic.audio_tracks.size(),
            hosted.presentation.audio.size());
  EXPECT_FALSE(hosted.result.traffic.downloads.empty());
}

}  // namespace
}  // namespace vodx::core
