// The methodology-validation sweep: for every catalogued service, run a
// session and check that what the black-box toolchain infers (traffic
// analysis + UI monitoring + buffer inference) agrees with the player's
// ground truth — the validation the paper itself could not perform.
#include <gtest/gtest.h>

#include "core/session.h"
#include "obs/observer.h"
#include "trace/cellular_profiles.h"
#include "testing/trace.h"

namespace vodx::core {
namespace {

class ServiceValidation : public ::testing::TestWithParam<std::string> {
 protected:
  SessionResult run(int profile_id, Seconds duration = 300,
                    obs::Observer* observer = nullptr) {
    SessionConfig config;
    config.spec = services::service(GetParam());
    config.trace = trace::cellular_profile(profile_id);
    config.session_duration = duration;
    config.content_duration = 600;
    config.observer = observer;
    return run_session(config);
  }
};

TEST_P(ServiceValidation, PlaybackProgressesOnDecentNetwork) {
  SessionResult r = run(8);  // ~7.5 Mbps mean
  EXPECT_GE(r.final_position, 200)
      << "player barely progressed: " << to_string(r.final_state);
}

TEST_P(ServiceValidation, InferredStartupDelayCloseToTruth) {
  SessionResult r = run(8);
  ASSERT_GE(r.ground_truth.startup_delay, 0);
  EXPECT_NEAR(r.qoe.startup_delay, r.ground_truth.startup_delay, 1.6);
}

TEST_P(ServiceValidation, InferredBitrateCloseToTruth) {
  SessionResult r = run(8);
  ASSERT_GT(r.ground_truth.average_declared_bitrate, 0);
  EXPECT_NEAR(r.qoe.average_declared_bitrate,
              r.ground_truth.average_declared_bitrate,
              0.10 * r.ground_truth.average_declared_bitrate);
}

TEST_P(ServiceValidation, InferredStallTimeCloseToTruth) {
  SessionResult r = run(3);  // 1.5 Mbps mean: stalls likely for some
  const Seconds truth = r.ground_truth.total_stall;
  EXPECT_NEAR(r.qoe.total_stall, truth, 0.25 * truth + 3.0);
}

TEST_P(ServiceValidation, SegmentDurationRecoveredExactly) {
  SessionResult r = run(8, 120);
  const services::ServiceSpec& spec = services::service(GetParam());
  bool found = false;
  for (const auto& track : r.traffic.video_tracks) {
    if (track.segment_durations.empty()) continue;
    EXPECT_NEAR(track.nominal_segment_duration(), spec.segment_duration, 0.01);
    found = true;
  }
  EXPECT_TRUE(found);
}

TEST_P(ServiceValidation, AudioSeparationRecovered) {
  SessionResult r = run(8, 120);
  const services::ServiceSpec& spec = services::service(GetParam());
  EXPECT_EQ(!r.traffic.audio_tracks.empty(), spec.separate_audio);
}

TEST_P(ServiceValidation, WasteMatchesReplacementActivity) {
  SessionResult r = run(8);
  const services::ServiceSpec& spec = services::service(GetParam());
  if (spec.player.sr == player::SrPolicy::kNone) {
    // No SR: inferred waste only from aborted tail transfers (tiny).
    EXPECT_LT(static_cast<double>(r.qoe.wasted_bytes),
              0.02 * static_cast<double>(r.qoe.media_bytes) + 1e6);
  }
}

// Observability integration: an instrumented session's trace must tell the
// session's story in order — resolve, fill the startup buffer, start
// playing — and on a bad network the stall instants must bracket the
// player's own ground-truth record.
TEST_P(ServiceValidation, TraceNarratesStartupAndStalls) {
  obs::Observer observer;
  SessionResult r = run(3, 300, &observer);  // 1.5 Mbps: stalls likely

  std::vector<obs::Event> events = testing::retained(observer.trace);
  ASSERT_FALSE(events.empty());

  // Events come out of the sink oldest-first with monotonic sequence
  // numbers; equal-time bursts keep emission order.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].sim_time, events[i].sim_time + 1e-9);
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }

  auto index_of = [&](const char* name, obs::EventKind kind) {
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind == kind && std::string(events[i].name) == name) {
        return static_cast<long>(i);
      }
    }
    return -1L;
  };

  // Startup narrative: resolving -> startup -> playing, in that order.
  const long resolving = index_of("resolving", obs::EventKind::kSpanBegin);
  const long startup = index_of("startup", obs::EventKind::kSpanBegin);
  const long playing = index_of("playing", obs::EventKind::kSpanBegin);
  const long playback_start =
      index_of("playback.start", obs::EventKind::kInstant);
  ASSERT_GE(resolving, 0);
  ASSERT_GE(startup, 0);
  ASSERT_GE(playing, 0);
  ASSERT_GE(playback_start, 0);
  EXPECT_LT(resolving, startup);
  EXPECT_LT(startup, playing);

  // Stall instants mirror the ground truth: one begin per recorded stall,
  // and ends only for stalls that finished before the session did.
  long begins = 0;
  long ends = 0;
  for (const obs::Event& e : events) {
    if (e.kind != obs::EventKind::kInstant) continue;
    if (std::string(e.name) == "stall.begin") ++begins;
    if (std::string(e.name) == "stall.end") ++ends;
  }
  EXPECT_EQ(begins, static_cast<long>(r.ground_truth.stall_count));
  EXPECT_LE(ends, begins);

  // The summary metrics agree with the ground-truth report.
  obs::MetricsSnapshot snap = observer.metrics.snapshot(r.session_end);
  const obs::MetricsSnapshot::Entry* stalls = snap.find("session.stalls");
  ASSERT_NE(stalls, nullptr);
  EXPECT_EQ(stalls->count, r.ground_truth.stall_count);
}

INSTANTIATE_TEST_SUITE_P(
    AllServices, ServiceValidation,
    ::testing::Values("H1", "H2", "H3", "H4", "H5", "H6", "D1", "D2", "D3",
                      "D4", "S1", "S2"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace vodx::core
