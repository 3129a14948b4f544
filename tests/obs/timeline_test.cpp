// obs::Timeline: the merge algebra (identity, associativity, fold kinds,
// padding) and the bin-boundary convention every population sampler relies
// on (DESIGN.md §15).
#include "obs/timeline.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/strings.h"
#include "testing/merge.h"

namespace vodx::obs {
namespace {

using vodx::testing::merge;

Timeline sample_timeline(double a0, double a1, double m0, double m1) {
  Timeline timeline(1.0, 2);
  const int adds = timeline.add_series("adds", Timeline::Fold::kSum);
  const int peaks = timeline.add_series("peaks", Timeline::Fold::kMax);
  timeline.set(adds, 0, a0);
  timeline.set(adds, 1, a1);
  timeline.set(peaks, 0, m0);
  timeline.set(peaks, 1, m1);
  return timeline;
}

/// A timeline's whole state: bin width and count, then each series' name,
/// fold kind and exact bin values.
std::string bytes(const Timeline& timeline) {
  std::string out =
      format("%a x %d", timeline.bin_width(), timeline.bin_count());
  for (const Timeline::Series& series : timeline.all()) {
    out += format("\n%s/%d:", series.name.c_str(),
                  static_cast<int>(series.fold));
    for (const double value : series.bins) out += format(" %a", value);
  }
  return out;
}

TEST(Timeline, DefaultConstructedIsMergeIdentity) {
  const Timeline value = sample_timeline(1, 2, 3, 4);
  EXPECT_TRUE(Timeline().empty());
  EXPECT_FALSE(value.empty());

  Timeline left = value;
  left.merge_from(Timeline());
  EXPECT_EQ(bytes(left), bytes(value));

  Timeline right;
  right.merge_from(value);
  EXPECT_EQ(bytes(right), bytes(value));
}

TEST(Timeline, MergeIsAssociativeAcrossTowerOrder) {
  const Timeline a = sample_timeline(1, 0, 5, 1);
  const Timeline b = sample_timeline(2, 3, 2, 9);
  const Timeline c = sample_timeline(0, 7, 4, 4);
  // (a + b) + c == a + (b + c): the post-join fold may group towers any
  // way the scheduler happened to, the result may not care.
  EXPECT_EQ(bytes(merge(merge(a, b), c)), bytes(merge(a, merge(b, c))));
}

TEST(Timeline, FoldKindsSumAndMax) {
  const Timeline merged = merge(sample_timeline(1, 2, 5, 1),
                                sample_timeline(10, 20, 3, 8));
  const int adds = merged.find("adds");
  const int peaks = merged.find("peaks");
  ASSERT_GE(adds, 0);
  ASSERT_GE(peaks, 0);
  EXPECT_DOUBLE_EQ(merged.value(adds, 0), 11);
  EXPECT_DOUBLE_EQ(merged.value(adds, 1), 22);
  EXPECT_DOUBLE_EQ(merged.value(peaks, 0), 5);
  EXPECT_DOUBLE_EQ(merged.value(peaks, 1), 8);
}

TEST(Timeline, ShorterOperandPadsWithIdentity) {
  Timeline longer(1.0, 4);
  const int series = longer.add_series("adds", Timeline::Fold::kSum);
  longer.set(series, 3, 7);
  Timeline merged = sample_timeline(1, 2, 3, 4);
  merged.merge_from(longer);
  EXPECT_EQ(merged.bin_count(), 4);
  const int adds = merged.find("adds");
  EXPECT_DOUBLE_EQ(merged.value(adds, 0), 1);
  EXPECT_DOUBLE_EQ(merged.value(adds, 3), 7);
  const int peaks = merged.find("peaks");
  EXPECT_DOUBLE_EQ(merged.value(peaks, 3), 0);
}

TEST(Timeline, MergeRejectsMismatchedBinWidthAndFold) {
  Timeline seconds(1.0, 2);
  seconds.add_series("x", Timeline::Fold::kSum);
  Timeline tens(10.0, 2);
  tens.add_series("x", Timeline::Fold::kSum);
  EXPECT_THROW(seconds.merge_from(tens), ConfigError);

  Timeline other(1.0, 2);
  other.add_series("x", Timeline::Fold::kMax);
  EXPECT_THROW(seconds.merge_from(other), ConfigError);
  EXPECT_THROW(seconds.add_series("x", Timeline::Fold::kMax), ConfigError);
}

TEST(Timeline, BinBoundaryBelongsToTheBinStartingThere) {
  const Timeline timeline(1.0, 10);
  EXPECT_EQ(timeline.bin_index(0.0), 0);
  EXPECT_EQ(timeline.bin_index(0.999), 0);
  EXPECT_EQ(timeline.bin_index(1.0), 1);
  // Float-accumulated boundary (100 ticks of 0.01) lands in bin 1, not 0.
  double accumulated = 0;
  for (int i = 0; i < 100; ++i) accumulated += 0.01;
  EXPECT_EQ(timeline.bin_index(accumulated), 1);
  // Out-of-range stamps clamp instead of dropping.
  EXPECT_EQ(timeline.bin_index(-0.5), 0);
  EXPECT_EQ(timeline.bin_index(25.0), 9);
}

}  // namespace
}  // namespace vodx::obs
