#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace vodx {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform_int(0, 1000) == b.uniform_int(0, 1000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    double x = rng.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(42);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    auto x = rng.uniform_int(0, 3);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 3);
    saw_lo |= x == 0;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, LognormalMedianRoughlyCorrect) {
  Rng rng(42);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.lognormal(2.0, 0.5));
  std::sort(xs.begin(), xs.end());
  EXPECT_NEAR(xs[xs.size() / 2], 2.0, 0.1);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(9);
  Rng child_a = parent.fork(1);
  Rng child_b = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child_a.uniform_int(0, 100000) == child_b.uniform_int(0, 100000)) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkDeterministicFromSameState) {
  EXPECT_DOUBLE_EQ(Rng(5).fork(3).uniform(0, 1), Rng(5).fork(3).uniform(0, 1));
}

}  // namespace
}  // namespace vodx
