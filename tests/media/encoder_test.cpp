#include "media/encoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.h"
#include "media/scene.h"

namespace vodx::media {
namespace {

Bps peak_bitrate(const Track& track) {
  Bps peak = 0;
  for (int i = 0; i < track.segment_count(); ++i) {
    peak = std::max(peak, track.segment(i).actual_bitrate());
  }
  return peak;
}

SceneComplexity scenes_for(Seconds duration, std::uint64_t seed = 1) {
  Rng rng(seed);
  return SceneComplexity::generate(duration, rng);
}

TEST(Scene, AverageComplexityIsNormalised) {
  SceneComplexity scenes = scenes_for(600);
  EXPECT_NEAR(scenes.average_over(0, 600), 1.0, 1e-9);
}

TEST(Scene, LocalComplexityVaries) {
  SceneComplexity scenes = scenes_for(600);
  double lo = 10;
  double hi = 0;
  for (Seconds t = 0; t < 600; t += 10) {
    const double c = scenes.average_over(t, t + 10);
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_LT(lo, 0.8);
  EXPECT_GT(hi, 1.2);
}

TEST(Scene, DeterministicInSeed) {
  SceneComplexity a = scenes_for(300, 7);
  SceneComplexity b = scenes_for(300, 7);
  for (Seconds t = 0; t < 300; t += 13) {
    EXPECT_DOUBLE_EQ(a.average_over(t, t + 5), b.average_over(t, t + 5));
  }
}

TEST(Encoder, CbrSegmentsNearlyUniform) {
  Rng rng(1);
  SceneComplexity scenes = scenes_for(600);
  EncoderConfig config;
  config.mode = EncodingMode::kCbr;
  Track t = encode_video_track("v", 1e6, 600, 4, config, scenes, rng);
  EXPECT_NEAR(t.average_actual_bitrate(), 1e6, 0.05e6);
  EXPECT_LT(peak_bitrate(t) / t.average_actual_bitrate(), 1.1);
}

TEST(Encoder, VbrPeakDeclaredHasTwoToOneGap) {
  Rng rng(1);
  SceneComplexity scenes = scenes_for(600);
  EncoderConfig config;
  config.mode = EncodingMode::kVbr;
  config.declared_policy = DeclaredPolicy::kPeak;
  config.peak_to_average = 2.0;
  Track t = encode_video_track("v", 2e6, 600, 4, config, scenes, rng);
  // Average actual ~ declared / 2; peak near the declared bitrate.
  EXPECT_NEAR(t.average_actual_bitrate(), 1e6, 0.08e6);
  EXPECT_GT(peak_bitrate(t), 1.6e6);
  EXPECT_LT(peak_bitrate(t), 2.4e6);
}

TEST(Encoder, VbrAverageDeclaredTracksAverage) {
  Rng rng(1);
  SceneComplexity scenes = scenes_for(600);
  EncoderConfig config;
  config.mode = EncodingMode::kVbr;
  config.declared_policy = DeclaredPolicy::kAverage;
  config.average_policy_peak = 1.5;
  Track t = encode_video_track("v", 2e6, 600, 4, config, scenes, rng);
  EXPECT_NEAR(t.average_actual_bitrate(), 2e6, 0.15e6);
  // Some segments exceed the declared bitrate (the S1/S2 pattern, Fig. 5).
  EXPECT_GT(peak_bitrate(t), 2.2e6);
}

TEST(Encoder, LadderSharesComplexityAcrossRungs) {
  Rng rng(1);
  SceneComplexity scenes = scenes_for(600);
  EncoderConfig config;  // VBR peak
  std::vector<Track> ladder =
      encode_video_ladder({5e5, 1e6, 2e6}, 600, 4, config, scenes, rng);
  ASSERT_EQ(ladder.size(), 3u);
  // Big segments line up: the largest segment of each track has the same
  // index (same complex scene).
  auto argmax = [](const Track& t) {
    int best = 0;
    for (const Segment& s : t.segments()) {
      if (s.size > t.segment(best).size) best = s.index;
    }
    return best;
  };
  EXPECT_EQ(argmax(ladder[0]), argmax(ladder[1]));
  EXPECT_EQ(argmax(ladder[1]), argmax(ladder[2]));
}

TEST(Encoder, TailSegmentShorterWhenNotDivisible) {
  Rng rng(1);
  SceneComplexity scenes = scenes_for(10);
  EncoderConfig config;
  Track t = encode_video_track("v", 1e6, 10, 4, config, scenes, rng);
  ASSERT_EQ(t.segment_count(), 3);
  EXPECT_DOUBLE_EQ(t.segment(2).duration, 2.0);
  EXPECT_DOUBLE_EQ(t.duration(), 10.0);
}

TEST(Encoder, SubSecondTailIsDropped) {
  Rng rng(1);
  SceneComplexity scenes = scenes_for(8.1);
  EncoderConfig config;
  Track t = encode_video_track("v", 1e6, 8.1, 4, config, scenes, rng);
  EXPECT_EQ(t.segment_count(), 2);  // 0.1 s tail not worth a segment
}

TEST(Encoder, AudioTrackIsNearCbr) {
  Rng rng(1);
  Track a = encode_audio_track(96e3, 600, 2, rng);
  EXPECT_EQ(a.type(), ContentType::kAudio);
  EXPECT_NEAR(a.average_actual_bitrate(), 96e3, 3e3);
  EXPECT_LT(peak_bitrate(a) / a.average_actual_bitrate(), 1.06);
  EXPECT_EQ(a.id(), "audio/0");
}

TEST(Encoder, LadderMustBeAscending) {
  Rng rng(1);
  SceneComplexity scenes = scenes_for(60);
  EncoderConfig config;
  EXPECT_DEATH(
      encode_video_ladder({2e6, 1e6}, 60, 4, config, scenes, rng),
      "ascending");
}

// Property sweep: for every (segment duration x policy), the realised
// average bitrate honours the declared policy.
class EncoderSweep
    : public ::testing::TestWithParam<std::tuple<double, DeclaredPolicy>> {};

TEST_P(EncoderSweep, AverageHonoursPolicy) {
  const auto [seg_dur, policy] = GetParam();
  Rng rng(11);
  SceneComplexity scenes = scenes_for(600, 3);
  EncoderConfig config;
  config.mode = EncodingMode::kVbr;
  config.declared_policy = policy;
  config.peak_to_average = 2.0;
  config.average_policy_peak = 1.5;
  Track t = encode_video_track("v", 3e6, 600, seg_dur, config, scenes, rng);
  const Bps expected =
      policy == DeclaredPolicy::kPeak ? 1.5e6 : 3e6;
  EXPECT_NEAR(t.average_actual_bitrate(), expected, 0.12 * expected);
  EXPECT_DOUBLE_EQ(t.declared_bitrate(), 3e6);
}

INSTANTIATE_TEST_SUITE_P(
    Durations, EncoderSweep,
    ::testing::Combine(::testing::Values(2.0, 4.0, 6.0, 9.0, 10.0),
                       ::testing::Values(DeclaredPolicy::kPeak,
                                         DeclaredPolicy::kAverage)));

}  // namespace
}  // namespace vodx::media
