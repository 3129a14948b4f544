// bucket_quantile edge cases: empty input, single sample, a single
// populated bucket (including overflow), and inconsistent hand-built
// entries must all yield well-defined, monotone quantiles.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "obs/metrics.h"
#include "testing/merge.h"

namespace vodx::obs {
namespace {

using vodx::testing::merge;

const std::vector<double> kBounds = {1, 2, 4, 8};

TEST(BucketQuantile, EmptyHistogramReturnsZeroEverywhere) {
  const std::vector<std::int64_t> buckets = {0, 0, 0, 0, 0};
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(bucket_quantile(kBounds, buckets, 0, 0, 0, q), 0);
  }
  Histogram h(kBounds);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0);
}

TEST(BucketQuantile, SingleSampleIsItsOwnQuantile) {
  Histogram h(kBounds);
  h.record(3.0);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 3.0);
  }
}

TEST(BucketQuantile, SinglePopulatedBucketClampsToObservedRange) {
  // All mass in the (2, 4] bucket, observed range [2.5, 3.5]: every
  // quantile interpolates inside the observed range, never the raw bucket
  // edges.
  Histogram h(kBounds);
  h.record(2.5);
  h.record(3.0);
  h.record(3.5);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_GE(h.quantile(q), 2.5);
    EXPECT_LE(h.quantile(q), 3.5);
  }
  EXPECT_DOUBLE_EQ(h.quantile(0), 2.5);
  EXPECT_DOUBLE_EQ(h.quantile(1), 3.5);
}

TEST(BucketQuantile, OverflowBucketUsesObservedMax) {
  // Mass past the last bound has no upper edge; the observed max bounds it.
  Histogram h(kBounds);
  h.record(20.0);
  h.record(30.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 30.0);
  EXPECT_GE(h.quantile(0.5), 20.0);
  EXPECT_LE(h.quantile(0.5), 30.0);
}

TEST(BucketQuantile, QuantilesAreMonotoneInQ) {
  Histogram h(kBounds);
  for (double v : {0.5, 0.7, 1.5, 3.0, 3.2, 5.0, 9.0, 12.0}) h.record(v);
  double prev = h.quantile(0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double next = h.quantile(q);
    EXPECT_GE(next, prev - 1e-12) << "q=" << q;
    prev = next;
  }
  EXPECT_DOUBLE_EQ(h.quantile(0), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(1), 12.0);
}

TEST(BucketQuantile, HandBuiltEntryWithoutStatsStaysFinite) {
  // Merged or hand-built entries can carry buckets without observed
  // min/max (min > max is the "no stats" signal). Quantiles must fall back
  // to the raw bucket edges instead of clamping to garbage.
  const std::vector<std::int64_t> buckets = {0, 3, 0, 0, 0};
  const double v = bucket_quantile(kBounds, buckets, 3, /*min=*/1,
                                   /*max=*/-1, 0.5);
  EXPECT_GE(v, 1.0);
  EXPECT_LE(v, 2.0);
  // Overflow-only mass without stats: the bucket has no upper edge and no
  // max; the result must still be finite (the lower edge).
  const std::vector<std::int64_t> overflow = {0, 0, 0, 0, 2};
  const double w =
      bucket_quantile(kBounds, overflow, 2, /*min=*/1, /*max=*/-1, 0.9);
  EXPECT_DOUBLE_EQ(w, 8.0);
}

TEST(BucketQuantile, CountBucketMismatchSkipsEmptyBuckets) {
  // count can exceed the bucket sum on hand-built entries; the quantile
  // walk must not land in an empty bucket.
  const std::vector<std::int64_t> buckets = {0, 0, 5, 0, 0};
  const double v = bucket_quantile(kBounds, buckets, 10, 2.5, 3.5, 0.1);
  EXPECT_GE(v, 2.5);
  EXPECT_LE(v, 3.5);
}

TEST(MergeEdge, EmptyHistogramIsTheMergeIdentity) {
  MetricsRegistry left;
  Histogram& h = left.histogram("x", kBounds);
  h.record(3.0);
  h.record(5.0);
  MetricsRegistry right;
  right.histogram("x", kBounds);  // registered, never recorded

  MetricsSnapshot a = left.snapshot(1);
  const MetricsSnapshot b = right.snapshot(2);
  const MetricsSnapshot merged = merge(a, b);
  const MetricsSnapshot::Entry* entry = merged.find("x");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 2);
  EXPECT_DOUBLE_EQ(entry->min, 3.0);
  EXPECT_DOUBLE_EQ(entry->max, 5.0);
  EXPECT_DOUBLE_EQ(entry->p50, left.snapshot(1).find("x")->p50);

  // And the other direction: folding samples into an empty entry.
  const MetricsSnapshot merged2 = merge(b, left.snapshot(1));
  EXPECT_EQ(merged2.find("x")->count, 2);
  EXPECT_DOUBLE_EQ(merged2.find("x")->p50, entry->p50);
}

TEST(MergeEdge, SinglePopulatedBucketMergesToDefinedQuantiles) {
  MetricsRegistry left;
  left.histogram("x", kBounds).record(3.0);
  MetricsRegistry right;
  right.histogram("x", kBounds).record(3.5);

  const MetricsSnapshot merged = merge(left.snapshot(1), right.snapshot(1));
  const MetricsSnapshot::Entry* entry = merged.find("x");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->count, 2);
  for (double q : {entry->p50, entry->p90, entry->p99}) {
    EXPECT_GE(q, 3.0);
    EXPECT_LE(q, 3.5);
  }
}

TEST(MergeEdge, BucketSizeMismatchThrows) {
  // Hand-built entries with equal bounds but a short bucket vector must be
  // rejected, not read out of bounds.
  MetricsSnapshot a;
  MetricsSnapshot::Entry ea;
  ea.name = "x";
  ea.type = MetricsSnapshot::Type::kHistogram;
  ea.count = 1;
  ea.bounds = kBounds;
  ea.buckets = {1, 0, 0, 0, 0};
  a.entries.push_back(ea);

  MetricsSnapshot b;
  MetricsSnapshot::Entry eb = ea;
  eb.buckets = {1, 0};  // truncated
  b.entries.clear();
  b.entries.push_back(eb);

  EXPECT_THROW(a.merge_from(b), ConfigError);
}

}  // namespace
}  // namespace vodx::obs
