#include "trace/cellular_profiles.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace vodx::trace {
namespace {

TEST(Profiles, FourteenProfilesSortedByMean) {
  ASSERT_EQ(kProfileCount, 14);
  for (int id = 2; id <= kProfileCount; ++id) {
    EXPECT_GT(cellular_profile(id).mean(), cellular_profile(id - 1).mean());
  }
}

TEST(Profiles, MeansHitTargets) {
  for (int id = 1; id <= kProfileCount; ++id) {
    net::BandwidthTrace t = cellular_profile(id);
    EXPECT_NEAR(t.mean(), profile_mean(id), 0.02 * profile_mean(id)) << id;
    EXPECT_DOUBLE_EQ(t.duration(), kProfileDuration);
  }
}

TEST(Profiles, SlowestCoversFigure3Range) {
  EXPECT_NEAR(profile_mean(1), 0.6e6, 1e5);
  EXPECT_NEAR(profile_mean(14), 38e6, 1e6);
}

TEST(Profiles, DeterministicInSeed) {
  net::BandwidthTrace a = cellular_profile(5, 99);
  net::BandwidthTrace b = cellular_profile(5, 99);
  for (Seconds t = 0; t < 600; t += 37) {
    EXPECT_DOUBLE_EQ(a.at(t), b.at(t));
  }
  net::BandwidthTrace c = cellular_profile(5, 100);
  bool differs = false;
  for (Seconds t = 0; t < 600; t += 7) {
    if (a.at(t) != c.at(t)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Profiles, BandwidthIsAlwaysPositive) {
  for (int id = 1; id <= kProfileCount; ++id) {
    net::BandwidthTrace t = cellular_profile(id);
    for (Seconds wall = 0; wall < 600; wall += 1) {
      EXPECT_GE(t.at(wall), 50e3) << "profile " << id << " at " << wall;
    }
  }
}

TEST(Profiles, VariabilityShrinksWithSpeed) {
  // Slow profiles fade harder: coefficient of variation decreases.
  auto cov = [](const net::BandwidthTrace& t) {
    double mean = t.mean();
    double sum_sq = 0;
    int n = 0;
    for (Seconds wall = 0; wall < 600; wall += 1, ++n) {
      const double d = t.at(wall) - mean;
      sum_sq += d * d;
    }
    return std::sqrt(sum_sq / n) / mean;
  };
  EXPECT_GT(cov(cellular_profile(1)), cov(cellular_profile(14)) * 0.9);
}

TEST(Profiles, ProfilesHaveNames) {
  EXPECT_EQ(cellular_profile(3).name(), "Profile 3");
}

TEST(StartupProfiles, FiftyOneMinutePieces) {
  std::vector<net::BandwidthTrace> pieces = startup_profiles();
  ASSERT_EQ(pieces.size(), 50u);  // 5 profiles x 10 pieces
  for (const net::BandwidthTrace& p : pieces) {
    EXPECT_DOUBLE_EQ(p.duration(), 60);
  }
}

TEST(StartupProfiles, PiecesComeFromLowProfiles) {
  std::vector<net::BandwidthTrace> pieces = startup_profiles(2, 60);
  ASSERT_EQ(pieces.size(), 20u);
  // All pieces' means stay in the low-bandwidth regime.
  for (const net::BandwidthTrace& p : pieces) {
    EXPECT_LT(p.mean(), 4e6);
  }
}

TEST(Profiles, InvalidIdAborts) {
  EXPECT_DEATH(cellular_profile(0), "range");
  EXPECT_DEATH(cellular_profile(15), "range");
}

}  // namespace
}  // namespace vodx::trace
