#include "common/stats.h"

#include <gtest/gtest.h>

namespace vodx {
namespace {

TEST(Mean, Basics) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({-5, 5}), 0.0);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> xs{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 50);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 30);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 20);
  EXPECT_DOUBLE_EQ(percentile(xs, 90), 46);
}

TEST(Percentile, ClampsOutOfRangeP) {
  std::vector<double> xs{1, 2};
  EXPECT_DOUBLE_EQ(percentile(xs, -10), 1);
  EXPECT_DOUBLE_EQ(percentile(xs, 200), 2);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7}, 50), 7);
}

TEST(MinMax, Basics) {
  EXPECT_DOUBLE_EQ(min_of({3, 1, 2}), 1);
  EXPECT_DOUBLE_EQ(max_of({3, 1, 2}), 3);
  EXPECT_DOUBLE_EQ(min_of({}), 0);
}

TEST(Quantiles, MatchesPercentileCalls) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(101 - i));
  const QuantileSummary q = quantiles(xs);
  EXPECT_DOUBLE_EQ(q.p50, percentile(xs, 50));
  EXPECT_DOUBLE_EQ(q.p95, percentile(xs, 95));
  EXPECT_DOUBLE_EQ(q.p99, percentile(xs, 99));
}

TEST(Quantiles, EmptyAndSingle) {
  const QuantileSummary empty = quantiles({});
  EXPECT_DOUBLE_EQ(empty.p50, 0);
  EXPECT_DOUBLE_EQ(empty.p95, 0);
  EXPECT_DOUBLE_EQ(empty.p99, 0);
  const QuantileSummary one = quantiles({7});
  EXPECT_DOUBLE_EQ(one.p50, 7);
  EXPECT_DOUBLE_EQ(one.p99, 7);
}

TEST(JainIndex, EqualSharesAreFair) {
  EXPECT_DOUBLE_EQ(jain_index({5, 5, 5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({3}), 1.0);
}

TEST(JainIndex, OneFlowHasEverything) {
  // (Σx)²/(n·Σx²) = 1/n when a single flow holds all the capacity.
  EXPECT_NEAR(jain_index({10, 0, 0, 0}), 0.25, 1e-12);
}

TEST(JainIndex, KnownUnevenSplit) {
  // (1+2+3)² / (3 * (1+4+9)) = 36/42.
  EXPECT_NEAR(jain_index({1, 2, 3}), 36.0 / 42.0, 1e-12);
}

TEST(JainIndex, EdgeCases) {
  EXPECT_DOUBLE_EQ(jain_index({}), 0.0);       // no population
  EXPECT_DOUBLE_EQ(jain_index({0, 0, 0}), 1.0);  // all-zero: equally poor
}

TEST(Accumulator, TracksRunningStats) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  acc.add(2);
  acc.add(4);
  acc.add(9);
  EXPECT_EQ(acc.count(), 3);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, NegativeValuesSetMinMax) {
  Accumulator acc;
  acc.add(-3);
  EXPECT_DOUBLE_EQ(acc.min(), -3);
  EXPECT_DOUBLE_EQ(acc.max(), -3);
}

}  // namespace
}  // namespace vodx
