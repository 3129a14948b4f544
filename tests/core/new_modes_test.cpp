// End-to-end coverage for the addressing modes beyond what the 12 studied
// services used: DASH SegmentTemplate ($Number$ files) and HLS v4
// byte-range segments — plus the BBA-style buffer-based ABR.
#include <gtest/gtest.h>

#include "core/session.h"
#include "manifest/dash_mpd.h"
#include "testing/fixtures.h"

namespace vodx::core {
namespace {

using vodx::testing::test_spec;

SessionResult run_spec(services::ServiceSpec spec, Bps bandwidth = 4e6,
                       Seconds duration = 120) {
  SessionConfig config;
  config.spec = std::move(spec);
  config.trace = net::BandwidthTrace::constant(bandwidth, duration);
  config.session_duration = duration;
  config.content_duration = 300;
  return run_session(config);
}

TEST(SegmentTemplate, MpdRoundTrip) {
  manifest::DashMpd mpd;
  mpd.media_presentation_duration = 20;
  manifest::DashAdaptationSet set;
  manifest::DashRepresentation rep;
  rep.id = "video/0";
  rep.bandwidth = 1e6;
  rep.media_template = "video/0/seg$Number$.m4s";
  rep.start_number = 1;
  rep.template_durations = {4, 4, 4, 4, 4};
  set.representations.push_back(rep);
  mpd.adaptation_sets.push_back(set);

  manifest::DashMpd parsed = manifest::DashMpd::parse(mpd.serialize());
  const auto& out = parsed.adaptation_sets[0].representations[0];
  EXPECT_EQ(out.media_template, "video/0/seg$Number$.m4s");
  EXPECT_EQ(out.start_number, 1);
  ASSERT_EQ(out.template_durations.size(), 5u);
  std::string url = "stale";
  out.template_url(0, url);
  EXPECT_EQ(url, "video/0/seg1.m4s");
  out.template_url(4, url);
  EXPECT_EQ(url, "video/0/seg5.m4s");
}

TEST(SegmentTemplate, FullSessionStreams) {
  services::ServiceSpec spec = test_spec(manifest::Protocol::kDash);
  spec.dash_index = manifest::DashIndexMode::kSegmentTemplate;
  SessionResult r = run_spec(spec);
  EXPECT_GE(r.final_position, 100);
  EXPECT_TRUE(r.events.stalls.empty());
  // Templated mode exposes no sizes: the analyzer's tracks have durations
  // but no size lists.
  ASSERT_EQ(r.traffic.video_tracks.size(), 4u);
  for (const AnalyzedTrack& t : r.traffic.video_tracks) {
    EXPECT_FALSE(t.segment_durations.empty());
    EXPECT_TRUE(t.segment_sizes.empty());
  }
  // Every download still maps to (level, index).
  int mapped = 0;
  for (const SegmentDownload& d : r.traffic.downloads) {
    if (d.type == media::ContentType::kVideo) ++mapped;
    EXPECT_GE(d.level, 0);
  }
  EXPECT_GT(mapped, 15);
}

TEST(SegmentTemplate, QoeInferenceStillMatchesTruth) {
  services::ServiceSpec spec = test_spec(manifest::Protocol::kDash);
  spec.dash_index = manifest::DashIndexMode::kSegmentTemplate;
  SessionResult r = run_spec(spec);
  EXPECT_NEAR(r.qoe.average_declared_bitrate,
              r.ground_truth.average_declared_bitrate,
              0.05 * r.ground_truth.average_declared_bitrate);
}

TEST(HlsByteRange, FullSessionStreamsWithSizesExposed) {
  services::ServiceSpec spec = test_spec(manifest::Protocol::kHls);
  spec.hls_byterange = true;
  SessionResult r = run_spec(spec);
  EXPECT_GE(r.final_position, 100);
  ASSERT_EQ(r.traffic.video_tracks.size(), 4u);
  // Byte-range HLS exposes exact sizes, like DASH (§4.2's "newer HLS").
  for (const AnalyzedTrack& t : r.traffic.video_tracks) {
    EXPECT_EQ(t.segment_sizes.size(), t.segment_durations.size());
  }
  for (const SegmentDownload& d : r.traffic.downloads) {
    if (d.type != media::ContentType::kVideo || d.aborted) continue;
    const AnalyzedTrack& track = r.traffic.video_track(d.level);
    EXPECT_EQ(d.bytes,
              track.segment_sizes[static_cast<std::size_t>(d.index)]);
  }
}

TEST(HlsByteRange, EnablesActualBitrateAbr) {
  // §4.2: once HLS exposes sizes, an actual-aware ABR can use them.
  services::ServiceSpec declared_only = test_spec(manifest::Protocol::kHls);
  declared_only.hls_byterange = true;
  declared_only.peak_to_average = 2.0;
  services::ServiceSpec actual = declared_only;
  actual.player.use_actual_bitrate = true;

  SessionResult base = run_spec(declared_only, 1.2e6, 200);
  SessionResult aware = run_spec(actual, 1.2e6, 200);
  EXPECT_GT(aware.qoe.average_declared_bitrate,
            base.qoe.average_declared_bitrate);
}

TEST(HlsAverageBandwidth, ImprovesSelectionWithoutByteRanges) {
  // §4.2: even without per-segment sizes, the AVERAGE-BANDWIDTH attribute
  // lets an actual-aware ABR stop treating the peak-declared bitrate as the
  // track's cost.
  auto run = [](bool use_actual) {
    services::ServiceSpec spec = test_spec(manifest::Protocol::kHls);
    spec.peak_to_average = 2.0;
    spec.hls_average_bandwidth = true;
    spec.player.use_actual_bitrate = use_actual;
    return run_spec(std::move(spec), 1.2e6, 200);
  };
  SessionResult declared_only = run(false);
  SessionResult average_aware = run(true);
  EXPECT_GT(average_aware.qoe.average_declared_bitrate,
            1.3 * declared_only.qoe.average_declared_bitrate);
  // No per-segment granularity was needed: sizes were never on the wire.
  for (const AnalyzedTrack& t : average_aware.traffic.video_tracks) {
    EXPECT_TRUE(t.segment_sizes.empty());
  }
}

TEST(BufferBasedAbr, StreamsAndSettles) {
  services::ServiceSpec spec = test_spec(manifest::Protocol::kDash);
  spec.player.abr = player::AbrKind::kBufferBased;
  spec.player.bba_reservoir = 8;
  spec.player.bba_cushion = 20;
  spec.player.pausing_threshold = 40;
  spec.player.resuming_threshold = 32;
  SessionResult r = run_spec(spec, 5e6, 200);
  EXPECT_GE(r.final_position, 180);
  EXPECT_TRUE(r.events.stalls.empty());
  // With ample bandwidth the buffer fills past the cushion and playback
  // spends most time on the top track.
  EXPECT_GT(r.qoe.fraction_at_or_below(480), -1);  // sanity
  EXPECT_GT(r.qoe.average_declared_bitrate, 1.5e6);
}

TEST(BufferBasedAbr, DrainsGracefullyOnLowBandwidth) {
  services::ServiceSpec spec = test_spec(manifest::Protocol::kDash);
  spec.player.abr = player::AbrKind::kBufferBased;
  spec.player.bba_reservoir = 8;
  spec.player.bba_cushion = 20;
  spec.player.pausing_threshold = 40;
  spec.player.resuming_threshold = 32;
  SessionResult r = run_spec(spec, 600e3, 200);
  // The buffer controller keeps it on low tracks instead of stalling hard.
  EXPECT_LT(r.qoe.average_declared_bitrate, 900e3);
  EXPECT_LT(r.ground_truth.total_stall, 20);
}

}  // namespace
}  // namespace vodx::core
