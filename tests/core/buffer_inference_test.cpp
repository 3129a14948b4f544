#include "core/buffer_inference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/session.h"
#include "testing/fixtures.h"

namespace vodx::core {
namespace {

using vodx::testing::test_spec;

SessionResult steady_session(manifest::Protocol protocol,
                             Bps bandwidth = 4e6, Seconds duration = 180) {
  SessionConfig config;
  config.spec = test_spec(protocol);
  config.trace = net::BandwidthTrace::constant(bandwidth, duration);
  config.session_duration = duration;
  config.content_duration = 600;
  return run_session(config);
}

TEST(BufferInference, TracksOscillateBetweenThresholds) {
  SessionResult r = steady_session(manifest::Protocol::kHls);
  // After warmup the inferred video buffer must live in
  // [resuming - slack, pausing + segment + slack].
  for (const BufferSample& s : r.buffer) {
    if (s.wall < 60) continue;
    EXPECT_GE(s.video_buffer, 25 - 8) << "at " << s.wall;
    EXPECT_LE(s.video_buffer, 30 + 4 + 4) << "at " << s.wall;
  }
}

TEST(BufferInference, MatchesGroundTruthDuringSteadyState) {
  SessionResult r = steady_session(manifest::Protocol::kDash);
  // Recompute the true buffer from the player events is not possible after
  // the fact, but the inferred buffer must be consistent with no stalls:
  // it never hits zero after startup.
  ASSERT_TRUE(r.events.stalls.empty());
  for (const BufferSample& s : r.buffer) {
    if (s.wall < 30 || s.wall > 170) continue;
    EXPECT_GT(s.video_buffer, 0) << "at " << s.wall;
  }
}

TEST(BufferInference, AudioTrackedSeparately) {
  SessionResult r = steady_session(manifest::Protocol::kDash);
  bool audio_differs = false;
  for (const BufferSample& s : r.buffer) {
    if (std::abs(s.audio_buffer - s.video_buffer) > 1.0) {
      audio_differs = true;
      break;
    }
  }
  EXPECT_TRUE(audio_differs) << "separate audio pipeline should not shadow "
                                "the video buffer exactly";
}

TEST(BufferInference, MuxedAudioMirrorsVideo) {
  SessionResult r = steady_session(manifest::Protocol::kHls);
  for (const BufferSample& s : r.buffer) {
    EXPECT_DOUBLE_EQ(s.audio_buffer, s.video_buffer);
  }
}

TEST(DownloadProgress, MonotoneNonDecreasing) {
  SessionResult r = steady_session(manifest::Protocol::kHls);
  Seconds previous = 0;
  for (Seconds t = 0; t <= 180; t += 5) {
    Seconds progress =
        download_progress(r.traffic, media::ContentType::kVideo, t);
    EXPECT_GE(progress, previous);
    previous = progress;
  }
}

TEST(DownloadProgress, ZeroBeforeFirstCompletion) {
  SessionResult r = steady_session(manifest::Protocol::kHls);
  EXPECT_DOUBLE_EQ(
      download_progress(r.traffic, media::ContentType::kVideo, 0.0), 0.0);
}

// --- infer_buffer against the per-sample §2.5 reference -------------------

using media::ContentType;

/// Every sample `infer_buffer(traffic, ui, session_end, step)` returned must
/// equal "downloading progress minus playing progress" recomputed at its
/// wall time through download_progress and UiInference::position_at, bit
/// for bit.
void expect_matches_reference(const std::vector<BufferSample>& samples,
                              const AnalyzedTraffic& traffic,
                              const UiInference& ui, Seconds session_end,
                              Seconds step) {
  std::size_t expected_count = 0;
  for (Seconds t = 0; t <= session_end + 1e-9; t += step) {
    ASSERT_LT(expected_count, samples.size()) << "missing sample at " << t;
    EXPECT_EQ(samples[expected_count].wall, t);
    ++expected_count;
  }
  ASSERT_EQ(samples.size(), expected_count);
  const bool separate_audio = !traffic.audio_tracks.empty();
  for (const BufferSample& s : samples) {
    const Seconds position = ui.position_at(s.wall);
    const Seconds video = std::max(
        0.0, download_progress(traffic, ContentType::kVideo, s.wall) -
                 position);
    EXPECT_EQ(s.video_buffer, video) << "video at " << s.wall;
    const Seconds audio =
        separate_audio
            ? std::max(0.0, download_progress(traffic, ContentType::kAudio,
                                              s.wall) -
                                position)
            : video;
    EXPECT_EQ(s.audio_buffer, audio) << "audio at " << s.wall;
  }
}

class BufferInferenceEquivalence
    : public ::testing::TestWithParam<manifest::Protocol> {};

TEST_P(BufferInferenceEquivalence, SessionBufferMatchesReference) {
  const SessionResult r = steady_session(GetParam(), 2.5e6);
  ASSERT_FALSE(r.traffic.downloads.empty());
  expect_matches_reference(r.buffer, r.traffic, r.ui, r.session_end, 1.0);
}

TEST_P(BufferInferenceEquivalence, OtherStepsMatchReference) {
  const SessionResult r = steady_session(GetParam(), 2.5e6);
  for (Seconds step : {0.5, 2.0}) {
    SCOPED_TRACE(step);
    expect_matches_reference(infer_buffer(r.traffic, r.ui, r.session_end, step),
                             r.traffic, r.ui, r.session_end, step);
  }
}

TEST_P(BufferInferenceEquivalence, SessionEndFarPastTheTraffic) {
  // A diagnosed population session: 120 s of traffic, finished at the
  // tower's 2400 s horizon.
  const SessionResult r = steady_session(GetParam(), 2.5e6, 120);
  expect_matches_reference(infer_buffer(r.traffic, r.ui, 2400), r.traffic,
                           r.ui, 2400, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, BufferInferenceEquivalence,
    ::testing::Values(manifest::Protocol::kHls, manifest::Protocol::kDash,
                      manifest::Protocol::kSmooth),
    [](const ::testing::TestParamInfo<manifest::Protocol>& info) {
      return std::string(manifest::to_string(info.param));
    });

AnalyzedTrack track_of(ContentType type, int level,
                       std::vector<Seconds> durations) {
  AnalyzedTrack track;
  track.type = type;
  track.level = level;
  track.segment_durations = std::move(durations);
  return track;
}

SegmentDownload download_of(ContentType type, int level, int index,
                            Seconds completed_at, bool aborted = false) {
  SegmentDownload d;
  d.type = type;
  d.level = level;
  d.index = index;
  d.completed_at = completed_at;
  d.aborted = aborted;
  return d;
}

/// Durations whose running sums round, so summation order shows.
const std::vector<Seconds> kVideoDurations = {4.004, 3.9, 0.1, 4.3,
                                              2.7,   4.1, 4.0};
const std::vector<Seconds> kAudioDurations = {2.0, 2.1, 1.7, 2.0, 2.3};

/// Hand-built traffic covering every rule of download_progress.
AnalyzedTraffic tricky_traffic() {
  AnalyzedTraffic traffic;
  traffic.video_tracks = {track_of(ContentType::kVideo, 0, kVideoDurations),
                          track_of(ContentType::kVideo, 1, kVideoDurations)};
  traffic.audio_tracks = {track_of(ContentType::kAudio, 0, kAudioDurations)};
  traffic.downloads = {
      download_of(ContentType::kVideo, 0, 0, 3.0),
      // A later index completing before an earlier one.
      download_of(ContentType::kVideo, 0, 2, 5.5),
      // Two renditions of one index: the earlier completion counts.
      download_of(ContentType::kVideo, 0, 1, 9.25),
      download_of(ContentType::kVideo, 1, 1, 7.75),
      // Aborted downloads never count, even with a completion time.
      download_of(ContentType::kVideo, 1, 3, -1, /*aborted=*/true),
      download_of(ContentType::kVideo, 0, 3, 10.0, /*aborted=*/true),
      download_of(ContentType::kVideo, 0, 3, 12.0),
      // Out-of-range indices are ignored.
      download_of(ContentType::kVideo, 0, 9, 1.0),
      download_of(ContentType::kVideo, 0, -1, 1.0),
      // Index 4 is missing: contiguity ends there, so 5 never counts.
      download_of(ContentType::kVideo, 0, 5, 2.0),
      download_of(ContentType::kAudio, 0, 1, 4.5),
      download_of(ContentType::kAudio, 0, 0, 6.0),
      download_of(ContentType::kAudio, 0, 2, 6.0),
      download_of(ContentType::kAudio, 0, 3, 14.5),
      download_of(ContentType::kAudio, 0, 4, 30.0),
  };
  return traffic;
}

/// Playback starts at 6 s, stalls from 11 s to 14 s, then runs on.
UiInference tricky_ui() {
  UiInference ui;
  int position = 0;
  for (int wall = 0; wall <= 40; ++wall) {
    if (wall > 6 && (wall <= 11 || wall > 14)) ++position;
    ui.samples.push_back(ProgressSample{static_cast<Seconds>(wall), position});
  }
  return ui;
}

TEST(BufferInferenceHandBuilt, ProgressFollowsContiguity) {
  const AnalyzedTraffic traffic = tricky_traffic();
  const std::vector<Seconds>& d = kVideoDurations;
  const Seconds zero = 0;
  EXPECT_EQ(download_progress(traffic, ContentType::kVideo, 2.99), 0.0);
  EXPECT_EQ(download_progress(traffic, ContentType::kVideo, 7.0),
            zero + d[0]);
  EXPECT_EQ(download_progress(traffic, ContentType::kVideo, 7.75),
            zero + d[0] + d[1] + d[2]);
  EXPECT_EQ(download_progress(traffic, ContentType::kVideo, 11.0),
            zero + d[0] + d[1] + d[2]);
  EXPECT_EQ(download_progress(traffic, ContentType::kVideo, 1e6),
            zero + d[0] + d[1] + d[2] + d[3]);
  const std::vector<Seconds>& a = kAudioDurations;
  EXPECT_EQ(download_progress(traffic, ContentType::kAudio, 5.0), 0.0);
  EXPECT_EQ(download_progress(traffic, ContentType::kAudio, 6.0),
            zero + a[0] + a[1] + a[2]);
  EXPECT_EQ(download_progress(traffic, ContentType::kAudio, 30.0),
            zero + a[0] + a[1] + a[2] + a[3] + a[4]);
}

TEST(BufferInferenceHandBuilt, TrafficMatchesReference) {
  const AnalyzedTraffic traffic = tricky_traffic();
  const UiInference ui = tricky_ui();
  for (Seconds step : {0.5, 1.0, 2.0}) {
    SCOPED_TRACE(step);
    expect_matches_reference(infer_buffer(traffic, ui, 40, step), traffic,
                             ui, 40, step);
  }
  expect_matches_reference(infer_buffer(traffic, ui, 2400), traffic, ui,
                           2400, 1.0);
}

TEST(BufferInferenceHandBuilt, MuxedAndEmptyTraffic) {
  AnalyzedTraffic muxed = tricky_traffic();
  muxed.audio_tracks.clear();
  const UiInference ui = tricky_ui();
  expect_matches_reference(infer_buffer(muxed, ui, 40), muxed, ui, 40, 1.0);
  const AnalyzedTraffic empty;
  expect_matches_reference(infer_buffer(empty, UiInference{}, 10), empty,
                           UiInference{}, 10, 1.0);
  expect_matches_reference(infer_buffer(empty, ui, 10, 0.5), empty, ui, 10,
                           0.5);
}

}  // namespace
}  // namespace vodx::core
