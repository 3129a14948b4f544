// MetricsSnapshot as a mergeable value type: counters add, gauges keep the
// last write by sim time, histograms merge bucket-wise, and the whole
// operation is associative with the empty snapshot as identity — the
// properties the sweep aggregation layer's jobs-independence rests on.
#include <gtest/gtest.h>

#include "common/error.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "testing/merge.h"

namespace vodx::obs {
namespace {

using vodx::testing::merge;

MetricsSnapshot snap_a() {
  MetricsRegistry r;
  r.counter("stalls").add(2);
  r.gauge("buffer_s").set(10.0);
  Histogram& h = r.histogram("fetch_s", {1.0, 4.0});
  h.record(0.5);
  h.record(2.0);
  return r.snapshot(100.0);
}

MetricsSnapshot snap_b() {
  MetricsRegistry r;
  r.counter("stalls").add(3);
  r.counter("switches").add(7);  // absent from snap_a
  r.gauge("buffer_s").set(20.0);
  r.histogram("fetch_s", {1.0, 4.0}).record(3.0);
  return r.snapshot(50.0);
}

MetricsSnapshot snap_c() {
  MetricsRegistry r;
  r.counter("stalls").add(1);
  r.gauge("buffer_s").set(30.0);
  // fetch_s registered but never recorded: the empty-histogram identity.
  r.histogram("fetch_s", {1.0, 4.0});
  return r.snapshot(200.0);
}

TEST(SnapshotMerge, CountersAdd) {
  MetricsSnapshot m = merge(snap_a(), snap_b());
  EXPECT_EQ(m.find("stalls")->count, 5);
  EXPECT_EQ(m.find("switches")->count, 7);
  EXPECT_DOUBLE_EQ(m.sim_time, 100.0);
}

TEST(SnapshotMerge, GaugesKeepTheLastWriteBySimTime) {
  // b was captured earlier (t=50) than a (t=100): a's value survives in
  // either merge order.
  EXPECT_DOUBLE_EQ(merge(snap_a(), snap_b()).find("buffer_s")->value, 10.0);
  EXPECT_DOUBLE_EQ(merge(snap_b(), snap_a()).find("buffer_s")->value, 10.0);
  // Equal times: the right operand wins.
  MetricsSnapshot other = snap_a();
  other.entries[1].value = 99.0;
  EXPECT_DOUBLE_EQ(merge(snap_a(), other).find("buffer_s")->value, 99.0);
}

TEST(SnapshotMerge, HistogramsMergeBucketwise) {
  MetricsSnapshot m = merge(snap_a(), snap_b());
  const MetricsSnapshot::Entry* h = m.find("fetch_s");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3);
  EXPECT_DOUBLE_EQ(h->value, 5.5);  // sums add
  EXPECT_DOUBLE_EQ(h->min, 0.5);
  EXPECT_DOUBLE_EQ(h->max, 3.0);
  ASSERT_EQ(h->buckets.size(), 3u);
  EXPECT_EQ(h->buckets[0], 1);
  EXPECT_EQ(h->buckets[1], 2);
  EXPECT_EQ(h->buckets[2], 0);
  // Derived stats are recomputed from the merged buckets, not averaged.
  EXPECT_DOUBLE_EQ(h->mean, 5.5 / 3.0);
}

TEST(SnapshotMerge, EmptyMergeIsIdentityBothWays) {
  const MetricsSnapshot a = snap_a();
  const MetricsSnapshot empty;
  EXPECT_EQ(metrics_json(merge(a, empty)), metrics_json(a));
  EXPECT_EQ(metrics_json(merge(empty, a)), metrics_json(a));
}

TEST(SnapshotMerge, EmptyHistogramIsIdentity) {
  // c's fetch_s has no samples; merging it in either direction must leave
  // a's distribution untouched (c's capture time is later, so this would
  // fail if empty histograms clobbered like gauges).
  const MetricsSnapshot a = snap_a();
  EXPECT_EQ(merge(a, snap_c()).find("fetch_s")->count, 2);
  EXPECT_EQ(merge(snap_c(), a).find("fetch_s")->count, 2);
  EXPECT_DOUBLE_EQ(merge(snap_c(), a).find("fetch_s")->min, 0.5);
}

TEST(SnapshotMerge, MergeIsAssociative) {
  // The property run_sweep's fold depends on: any grouping of the same
  // ordered sequence produces the same bytes. snap_b is missing a metric
  // and snap_c has an out-of-order capture time, the two cases that broke
  // naive "latest snapshot wins" designs.
  const MetricsSnapshot ab_c = merge(merge(snap_a(), snap_b()), snap_c());
  const MetricsSnapshot a_bc = merge(snap_a(), merge(snap_b(), snap_c()));
  EXPECT_EQ(metrics_json(ab_c), metrics_json(a_bc));
  EXPECT_DOUBLE_EQ(ab_c.find("buffer_s")->value, 30.0);  // newest capture
}

TEST(SnapshotMerge, AppendsUnknownEntriesInOtherOrder) {
  MetricsSnapshot m = merge(snap_a(), snap_b());
  ASSERT_EQ(m.entries.size(), 4u);
  EXPECT_EQ(m.entries[0].name, "stalls");
  EXPECT_EQ(m.entries[1].name, "buffer_s");
  EXPECT_EQ(m.entries[2].name, "fetch_s");
  EXPECT_EQ(m.entries[3].name, "switches");  // appended from b
}

TEST(SnapshotMerge, TypeMismatchThrowsConfigError) {
  MetricsRegistry r1;
  r1.counter("x");
  MetricsRegistry r2;
  r2.gauge("x");
  MetricsSnapshot a = r1.snapshot(0);
  EXPECT_THROW(a.merge_from(r2.snapshot(0)), ConfigError);
}

TEST(SnapshotMerge, HistogramBoundsMismatchThrowsConfigError) {
  MetricsRegistry r1;
  r1.histogram("h", {1.0, 2.0}).record(1.0);
  MetricsRegistry r2;
  r2.histogram("h", {1.0, 8.0}).record(1.0);
  MetricsSnapshot a = r1.snapshot(0);
  EXPECT_THROW(a.merge_from(r2.snapshot(0)), ConfigError);
}

}  // namespace
}  // namespace vodx::obs
