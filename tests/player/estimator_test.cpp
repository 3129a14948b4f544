#include "player/bandwidth_estimator.h"

#include <gtest/gtest.h>

namespace vodx::player {
namespace {

TEST(Estimator, FirstSampleSetsEstimate) {
  BandwidthEstimator est;
  EXPECT_EQ(est.sample_count(), 0);
  EXPECT_DOUBLE_EQ(est.estimate(), 0);
  est.add_download(125000, 1.0);  // 1 Mbps
  EXPECT_EQ(est.sample_count(), 1);
  EXPECT_DOUBLE_EQ(est.estimate(), 1e6);
}

TEST(Estimator, AggregatesOverWindow) {
  BandwidthEstimator est;
  // 1 Mbps for 1 s + 3 Mbps for 1 s -> aggregate 2 Mbps.
  est.add_download(125000, 1.0);
  est.add_download(375000, 1.0);
  EXPECT_DOUBLE_EQ(est.estimate(), 2e6);
}

TEST(Estimator, TimeWeightedNotSampleWeighted) {
  BandwidthEstimator est;
  // A long slow transfer dominates a short fast one.
  est.add_download(125000, 10.0);  // 100 kbps for 10 s
  est.add_download(125000, 0.1);   // 10 Mbps for 0.1 s
  EXPECT_NEAR(est.estimate(), 250000 * 8.0 / 10.1, 1);
}

TEST(Estimator, OldSamplesFallOutOfWindow) {
  BandwidthEstimator est;
  for (int i = 0; i < 20; ++i) est.add_download(125000, 1.0);  // 1 Mbps
  for (std::size_t i = 0; i < kEstimatorWindow; ++i) {
    est.add_download(250000, 1.0);  // 2 Mbps
  }
  EXPECT_DOUBLE_EQ(est.estimate(), 2e6);
}

TEST(Estimator, IgnoresDegenerateSamples) {
  BandwidthEstimator est;
  est.add_download(0, 1.0);
  est.add_download(100, 0.0);
  est.add_download(-5, 1.0);
  EXPECT_EQ(est.sample_count(), 0);
}

}  // namespace
}  // namespace vodx::player
