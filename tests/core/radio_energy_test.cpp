#include "core/radio_energy.h"

#include <gtest/gtest.h>

#include "core/session.h"
#include "testing/fixtures.h"

namespace vodx::core {
namespace {

using vodx::testing::test_spec;

AnalyzedTraffic synthetic_traffic(
    std::vector<std::pair<Seconds, Seconds>> intervals) {
  AnalyzedTraffic traffic;
  traffic.media_transfer_intervals = std::move(intervals);
  return traffic;
}

TEST(RadioEnergy, AllIdleWithoutTraffic) {
  RadioEnergyReport r = radio_energy(synthetic_traffic({}), 100);
  EXPECT_DOUBLE_EQ(r.active_time, 0);
  // One demotion-timer tail at session start, then idle.
  EXPECT_DOUBLE_EQ(r.tail_time, 11);
  EXPECT_DOUBLE_EQ(r.idle_time, 89);
}

TEST(RadioEnergy, ContinuousTransferIsAllActive) {
  RadioEnergyReport r = radio_energy(synthetic_traffic({{0, 100}}), 100);
  EXPECT_DOUBLE_EQ(r.active_time, 100);
  EXPECT_DOUBLE_EQ(r.tail_time, 0);
  EXPECT_DOUBLE_EQ(r.idle_time, 0);
  EXPECT_NEAR(r.energy_joules, 130, 1e-9);  // 100 s x 1.3 W
}

TEST(RadioEnergy, ShortGapNeverLeavesHighPower) {
  // 8 s pause < 11 s demotion timer: all tail, no idle (the paper's point).
  RadioEnergyReport r =
      radio_energy(synthetic_traffic({{0, 10}, {18, 28}}), 28);
  EXPECT_DOUBLE_EQ(r.active_time, 20);
  EXPECT_DOUBLE_EQ(r.tail_time, 8);
  EXPECT_DOUBLE_EQ(r.idle_time, 0);
  EXPECT_DOUBLE_EQ(r.high_power_fraction(), 1.0);
}

TEST(RadioEnergy, LongGapDemotesToIdle) {
  RadioEnergyReport r =
      radio_energy(synthetic_traffic({{0, 10}, {41, 51}}), 51);
  EXPECT_DOUBLE_EQ(r.active_time, 20);
  EXPECT_DOUBLE_EQ(r.tail_time, 11);
  EXPECT_DOUBLE_EQ(r.idle_time, 20);
  EXPECT_LT(r.high_power_fraction(), 1.0);
}

TEST(RadioEnergy, OverlappingIntervalsMerge) {
  RadioEnergyReport r =
      radio_energy(synthetic_traffic({{0, 10}, {5, 15}, {12, 20}}), 20);
  EXPECT_DOUBLE_EQ(r.active_time, 20);
}

TEST(RadioEnergy, WiderThresholdGapSavesEnergy) {
  // The §3.3.2 suggestion, end to end: same service, one with a 5 s
  // pause/resume gap, one with a 25 s gap; at ample bandwidth the wide-gap
  // player lets the radio demote during pauses.
  auto run = [](Seconds resuming) {
    services::ServiceSpec spec = test_spec(manifest::Protocol::kHls);
    spec.player.pausing_threshold = 30;
    spec.player.resuming_threshold = resuming;
    SessionConfig config;
    config.spec = spec;
    config.trace = net::BandwidthTrace::constant(20e6, 400);
    config.session_duration = 400;
    config.content_duration = 600;
    SessionResult result = run_session(config);
    return radio_energy(result.traffic, result.session_end);
  };
  RadioEnergyReport narrow = run(25);  // 5 s gap < 11 s timer
  RadioEnergyReport wide = run(5);     // 25 s gap > timer
  EXPECT_GT(narrow.high_power_fraction(), 0.95);
  EXPECT_LT(wide.high_power_fraction(), 0.85);
  EXPECT_LT(wide.energy_joules, narrow.energy_joules);
}

}  // namespace
}  // namespace vodx::core
