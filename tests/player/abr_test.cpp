#include "player/abr.h"

#include <gtest/gtest.h>

namespace vodx::player {
namespace {

manifest::Presentation four_rung_presentation(bool sizes_known = false) {
  manifest::Presentation p;
  for (Bps declared : {400e3, 800e3, 1.6e6, 3.2e6}) {
    manifest::ClientTrack track;
    track.id = "v" + std::to_string(static_cast<int>(declared));
    track.declared_bitrate = declared;
    for (int i = 0; i < 20; ++i) {
      // Actual bitrate = half the declared, except segment 10 which spikes
      // to 0.9x declared (a complex scene).
      const double factor = i == 10 ? 0.9 : 0.5;
      track.add_segment(4).size =
          sizes_known ? bytes_for(declared * factor, 4) : 0;
    }
    track.sizes_known = sizes_known;
    p.video.push_back(std::move(track));
  }
  return p;
}

AbrContext context_for(const manifest::Presentation& p, Bps estimate,
                       int last_level = 0, int samples = 10,
                       int next_index = 0) {
  AbrContext context;
  context.presentation = &p;
  context.bandwidth_estimate = estimate;
  context.estimator_samples = samples;
  context.last_level = last_level;
  context.next_index = next_index;
  context.startup_level = 1;
  context.buffer = 20;
  return context;
}

PlayerConfig throughput_config(double safety = 0.75) {
  PlayerConfig config;
  config.abr = AbrKind::kThroughput;
  config.bandwidth_safety = safety;
  return config;
}

/// Repeats one decision kSwitchConfirmation times, so an up-switch the
/// policy wants is confirmed; any other decision is stable under repetition.
int confirmed_level(AbrPolicy& abr, const AbrContext& context) {
  int level = 0;
  for (int i = 0; i < kSwitchConfirmation; ++i) {
    level = abr.select_video_level(context);
  }
  return level;
}

TEST(ThroughputAbr, PicksHighestAffordable) {
  manifest::Presentation p = four_rung_presentation();
  auto abr = make_abr(throughput_config());
  EXPECT_EQ(confirmed_level(*abr, context_for(p, 1.2e6)), 1);  // 0.9M budget
  EXPECT_EQ(confirmed_level(*abr, context_for(p, 5e6)), 3);
  EXPECT_EQ(confirmed_level(*abr, context_for(p, 0.2e6)), 0);
}

TEST(ThroughputAbr, SafetyFactorScalesBudget) {
  manifest::Presentation p = four_rung_presentation();
  auto conservative = make_abr(throughput_config(0.5));
  auto aggressive = make_abr(throughput_config(1.2));
  EXPECT_EQ(confirmed_level(*conservative, context_for(p, 2e6)), 1);
  EXPECT_EQ(confirmed_level(*aggressive, context_for(p, 2e6)), 2);
}

TEST(ThroughputAbr, HoldsStartupLevelUntilEnoughSamples) {
  manifest::Presentation p = four_rung_presentation();
  auto abr = make_abr(throughput_config());
  EXPECT_EQ(confirmed_level(*abr, context_for(p, 5e6, 0,
                                              kEstimatorMinSamples - 1)),
            1);
  EXPECT_EQ(
      confirmed_level(*abr, context_for(p, 5e6, 0, kEstimatorMinSamples)), 3);
}

TEST(ThroughputAbr, UpSwitchNeedsConfirmation) {
  manifest::Presentation p = four_rung_presentation();
  auto abr = make_abr(throughput_config());
  // Optimistic estimates hold the track until kSwitchConfirmation agree.
  for (int i = 1; i < kSwitchConfirmation; ++i) {
    EXPECT_EQ(abr->select_video_level(context_for(p, 5e6, 1)), 1);
  }
  EXPECT_EQ(abr->select_video_level(context_for(p, 5e6, 1)), 3);
}

TEST(ThroughputAbr, DownSwitchIsImmediate) {
  manifest::Presentation p = four_rung_presentation();
  auto abr = make_abr(throughput_config());
  EXPECT_EQ(abr->select_video_level(context_for(p, 0.6e6, 3)), 0);
}

TEST(ThroughputAbr, DecreaseBufferDampsDownSwitch) {
  manifest::Presentation p = four_rung_presentation();
  PlayerConfig config = throughput_config();
  config.decrease_buffer = 30;
  auto abr = make_abr(config);
  AbrContext high_buffer = context_for(p, 0.6e6, 3);
  high_buffer.buffer = 50;
  EXPECT_EQ(abr->select_video_level(high_buffer), 3);  // ride it out
  AbrContext low_buffer = context_for(p, 0.6e6, 3);
  low_buffer.buffer = 20;
  EXPECT_EQ(abr->select_video_level(low_buffer), 0);  // buffer spent, drop
}

TEST(ThroughputAbr, ActualBitrateModeUsesSegmentSizes) {
  manifest::Presentation p = four_rung_presentation(/*sizes_known=*/true);
  PlayerConfig config = throughput_config();
  config.use_actual_bitrate = true;
  auto abr = make_abr(config);
  // Actual need is half the declared: with a 1.2 Mbps estimate the budget is
  // 0.9 Mbps which affords actual 0.8 Mbps = declared 1.6 Mbps (level 2);
  // declared-only logic picked level 1 here.
  EXPECT_EQ(confirmed_level(*abr, context_for(p, 1.2e6)), 2);
}

TEST(ThroughputAbr, ActualBitrateModeSeesUpcomingSpike) {
  manifest::Presentation p = four_rung_presentation(/*sizes_known=*/true);
  PlayerConfig config = throughput_config();
  config.use_actual_bitrate = true;
  auto abr = make_abr(config);
  // Next segments include the 0.9x-declared spike at index 10: level 2's
  // worst upcoming need is 1.44 Mbps > 0.9 Mbps budget, so back to level 1.
  EXPECT_EQ(confirmed_level(*abr, context_for(p, 1.2e6, 0, 10, /*next=*/9)), 1);
}

TEST(TrackRequiredRate, FallsBackToDeclared) {
  manifest::Presentation p = four_rung_presentation(false);
  PlayerConfig config;
  config.use_actual_bitrate = true;  // but sizes unknown
  EXPECT_DOUBLE_EQ(track_required_rate(p.video[2], 0, config), 1.6e6);
}

TEST(OscillatingAbr, JittersAroundTheDeclaredRateBaseline) {
  // Baseline at a 1 Mbps estimate: the highest track with declared bitrate
  // within the estimate is level 1 (800 kbps); buffer-slope bursts perturb
  // the selection around it, so it never settles.
  manifest::Presentation p = four_rung_presentation(true);
  PlayerConfig config;
  config.abr = AbrKind::kOscillating;
  auto abr = make_abr(config);
  AbrContext flat = context_for(p, 1e6, 1);
  EXPECT_EQ(abr->select_video_level(flat), 1);
  AbrContext growing = context_for(p, 1e6, 1);
  growing.buffer_delta = 3.0;  // a segment-fill burst
  EXPECT_EQ(abr->select_video_level(growing), 2);
  AbrContext shrinking = context_for(p, 1e6, 1);
  shrinking.buffer_delta = -4.0;  // a real drain
  EXPECT_EQ(abr->select_video_level(shrinking), 0);
  AbrContext noise = context_for(p, 1e6, 1);
  noise.buffer_delta = -1.0;  // inter-fill playback drain: ignored
  EXPECT_EQ(abr->select_video_level(noise), 1);
}

TEST(OscillatingAbr, DoubleStepOnStrongSlope) {
  manifest::Presentation p = four_rung_presentation(true);
  PlayerConfig config;
  config.abr = AbrKind::kOscillating;
  auto abr = make_abr(config);
  AbrContext surging = context_for(p, 0.4e6, 0);  // baseline level 0
  surging.buffer_delta = 9.0;
  EXPECT_EQ(abr->select_video_level(surging), 2);  // non-consecutive switch
}

TEST(OscillatingAbr, StaysWithinLadderBounds) {
  manifest::Presentation p = four_rung_presentation(true);
  PlayerConfig config;
  config.abr = AbrKind::kOscillating;
  auto abr = make_abr(config);
  AbrContext top = context_for(p, 50e6, 3);
  top.buffer_delta = 10.0;
  EXPECT_EQ(abr->select_video_level(top), 3);
  AbrContext bottom = context_for(p, 1e6, 0);
  bottom.buffer_delta = -10.0;
  EXPECT_EQ(abr->select_video_level(bottom), 0);
}

}  // namespace
}  // namespace vodx::player
