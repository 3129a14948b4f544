#include "core/qoe.h"

#include <gtest/gtest.h>

#include "core/session.h"
#include "services/service_catalog.h"
#include "testing/fixtures.h"
#include "trace/cellular_profiles.h"

namespace vodx::core {
namespace {

using vodx::testing::test_spec;

SessionResult run_qoe_session(Bps bandwidth, Seconds duration = 180,
                              manifest::Protocol protocol =
                                  manifest::Protocol::kHls) {
  SessionConfig config;
  config.spec = test_spec(protocol);
  config.trace = net::BandwidthTrace::constant(bandwidth, duration);
  config.session_duration = duration;
  config.content_duration = 600;
  return run_session(config);
}

TEST(Qoe, InferredMatchesGroundTruthBitrate) {
  SessionResult r = run_qoe_session(4e6);
  EXPECT_GT(r.qoe.average_declared_bitrate, 0);
  EXPECT_NEAR(r.qoe.average_declared_bitrate,
              r.ground_truth.average_declared_bitrate,
              0.05 * r.ground_truth.average_declared_bitrate);
}

TEST(Qoe, InferredStartupWithinASecond) {
  SessionResult r = run_qoe_session(4e6);
  EXPECT_NEAR(r.qoe.startup_delay, r.ground_truth.startup_delay, 1.5);
}

TEST(Qoe, SwitchCountsMatchGroundTruth) {
  SessionResult r = run_qoe_session(4e6);
  EXPECT_NEAR(r.qoe.switch_count, r.ground_truth.switch_count, 2);
}

TEST(Qoe, HigherBandwidthGivesHigherBitrate) {
  SessionResult slow = run_qoe_session(1e6);
  SessionResult fast = run_qoe_session(6e6);
  EXPECT_GT(fast.qoe.average_declared_bitrate,
            slow.qoe.average_declared_bitrate);
}

TEST(Qoe, LowQualityFractionTracksBandwidth) {
  SessionResult slow = run_qoe_session(0.8e6);
  SessionResult fast = run_qoe_session(6e6);
  EXPECT_GT(slow.qoe.low_quality_fraction, 0.8);
  EXPECT_LT(fast.qoe.low_quality_fraction, 0.4);
}

TEST(Qoe, TimeByHeightSumsToDisplayedTime) {
  SessionResult r = run_qoe_session(3e6);
  Seconds sum = 0;
  for (const auto& [height, secs] : r.qoe.time_by_height) sum += secs;
  EXPECT_NEAR(sum, r.qoe.displayed_time, 1e-6);
}

TEST(Qoe, FractionAtOrBelowIsMonotone) {
  SessionResult r = run_qoe_session(2e6);
  double previous = 0;
  for (int height : {240, 360, 480, 720, 1080}) {
    const double fraction = r.qoe.fraction_at_or_below(height);
    EXPECT_GE(fraction, previous);
    previous = fraction;
  }
  EXPECT_NEAR(previous, 1.0, 1e-9);
}

TEST(Qoe, NoWasteWithoutSrOrStalls) {
  SessionResult r = run_qoe_session(4e6);
  EXPECT_EQ(r.qoe.wasted_bytes, 0);
}

TEST(Qoe, StallTimeMatchesGroundTruth) {
  SessionConfig config;
  config.spec = test_spec(manifest::Protocol::kHls);
  config.trace = net::BandwidthTrace::from_samples(
      {{0, 4e6}, {30, 60e3}, {70, 4e6}}, 200);
  config.session_duration = 200;
  config.content_duration = 600;
  SessionResult r = run_session(config);
  ASSERT_GT(r.ground_truth.total_stall, 3);
  EXPECT_NEAR(r.qoe.total_stall, r.ground_truth.total_stall,
              0.2 * r.ground_truth.total_stall + 2);
}

TEST(Qoe, MediaBytesBelowTotalBytes) {
  SessionResult r = run_qoe_session(4e6);
  EXPECT_GT(r.qoe.media_bytes, 0);
  EXPECT_LT(r.qoe.media_bytes, r.qoe.total_bytes);
}

/// The per-index rescan compute_qoe used before its one-pass rewrite: for
/// each index, re-sum the segment start, rescan the UI samples and every
/// download. Returns the displayed segments; `wasted` gets the waste.
std::vector<DisplayedSegment> rescan_rule(const AnalyzedTraffic& traffic,
                                          const UiInference& ui,
                                          Bytes& wasted) {
  std::vector<DisplayedSegment> displayed;
  wasted = 0;
  const Seconds final_position =
      ui.samples.empty() ? 0
                         : static_cast<Seconds>(ui.samples.back().progress);
  const AnalyzedTrack& reference = traffic.video_tracks.front();
  const int segment_count =
      static_cast<int>(reference.segment_durations.size());
  std::vector<const SegmentDownload*> winners(
      static_cast<std::size_t>(segment_count), nullptr);
  for (int index = 0; index < segment_count; ++index) {
    const Seconds seg_start = reference.segment_start(index);
    if (seg_start >= final_position - 1e-9) break;
    Seconds play_wall = -1;
    for (const ProgressSample& s : ui.samples) {
      if (static_cast<Seconds>(s.progress) >= seg_start - 1e-9) {
        play_wall = s.wall;
        break;
      }
    }
    const SegmentDownload* winner = nullptr;
    const SegmentDownload* earliest = nullptr;
    for (const SegmentDownload& d : traffic.downloads) {
      if (d.type != media::ContentType::kVideo || d.index != index ||
          d.aborted || d.completed_at < 0) {
        continue;
      }
      if (earliest == nullptr || d.completed_at < earliest->completed_at) {
        earliest = &d;
      }
      if (play_wall >= 0 && d.completed_at <= play_wall + 1.0) {
        if (winner == nullptr || d.completed_at > winner->completed_at) {
          winner = &d;
        }
      }
    }
    if (winner == nullptr) winner = earliest;
    if (winner == nullptr) continue;
    winners[static_cast<std::size_t>(index)] = winner;
    DisplayedSegment shown;
    shown.index = index;
    shown.level = winner->level;
    shown.declared_bitrate = winner->declared_bitrate;
    shown.resolution = winner->resolution;
    shown.seconds_shown =
        std::min(seg_start + winner->duration, final_position) - seg_start;
    shown.play_wall = play_wall;
    if (shown.seconds_shown <= 0) continue;
    displayed.push_back(shown);
  }
  for (const SegmentDownload& d : traffic.downloads) {
    if (d.aborted) {
      wasted += d.bytes;
      continue;
    }
    if (d.type != media::ContentType::kVideo) continue;
    if (d.index < 0 || d.index >= segment_count) continue;
    const SegmentDownload* winner =
        winners[static_cast<std::size_t>(d.index)];
    if (winner != nullptr && winner != &d) wasted += d.bytes;
  }
  return displayed;
}

TEST(Qoe, OnePassMatchesPerIndexRescanOnEveryCatalogService) {
  int replaced = 0;  // indices downloaded more than once, over all sessions
  // Three profiles: at profile 5 some H1 download completes within a
  // second of its play time, so the winner window is exercised too.
  for (const int profile : {3, 5, 9}) {
  for (const services::ServiceSpec& spec : services::catalog()) {
    SCOPED_TRACE(spec.name + " profile " + std::to_string(profile));
    SessionConfig config;
    config.spec = spec;
    config.trace = trace::cellular_profile(profile);
    config.session_duration = 300;
    config.content_duration = 600;
    const SessionResult r = run_session(config);
    ASSERT_FALSE(r.traffic.video_tracks.empty());
    std::map<int, int> per_index;
    for (const SegmentDownload& d : r.traffic.downloads) {
      if (d.type == media::ContentType::kVideo) ++per_index[d.index];
    }
    for (const auto& [index, n] : per_index) replaced += n > 1;

    Bytes wasted = 0;
    const std::vector<DisplayedSegment> expected =
        rescan_rule(r.traffic, r.ui, wasted);
    const QoeReport q = compute_qoe(r.traffic, r.ui, r.session_end);
    ASSERT_EQ(q.displayed.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(q.displayed[i].index, expected[i].index);
      EXPECT_EQ(q.displayed[i].level, expected[i].level);
      EXPECT_EQ(q.displayed[i].declared_bitrate,
                expected[i].declared_bitrate);
      EXPECT_TRUE(q.displayed[i].resolution == expected[i].resolution);
      EXPECT_EQ(q.displayed[i].seconds_shown, expected[i].seconds_shown);
      EXPECT_EQ(q.displayed[i].play_wall, expected[i].play_wall);
    }
    EXPECT_EQ(q.wasted_bytes, wasted);
  }
  }
  // Some index was fetched twice, so the winner rule had a choice to make.
  EXPECT_GT(replaced, 0);
}

}  // namespace
}  // namespace vodx::core
