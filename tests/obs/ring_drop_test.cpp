// TraceSink drop accounting at degenerate capacities: capacity 0 (retain
// nothing, count everything), capacity 1, and exact wrap boundaries.
#include <gtest/gtest.h>

#include "obs/trace_sink.h"
#include "testing/trace.h"

namespace vodx::obs {
namespace {

TEST(RingDrop, CapacityZeroRetainsNothingButCountsExactly) {
  TraceSink sink(0);
  EXPECT_EQ(sink.capacity(), 0u);
  for (int i = 0; i < 7; ++i) {
    sink.instant(i, Category::kSim, "tick", 0);
  }
  EXPECT_EQ(sink.emitted(), 7u);
  EXPECT_EQ(sink.dropped(), 7u);
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_TRUE(testing::retained(sink).empty());

  // clear() keeps the lifetime counters (they are exporter-facing totals).
  sink.clear();
  EXPECT_EQ(sink.emitted(), 7u);
  EXPECT_EQ(sink.dropped(), 7u);
}

TEST(RingDrop, CapacityOneKeepsOnlyTheNewest) {
  TraceSink sink(1);
  sink.instant(1.0, Category::kSim, "a", 0);
  EXPECT_EQ(sink.dropped(), 0u);
  sink.instant(2.0, Category::kSim, "b", 0);
  sink.instant(3.0, Category::kSim, "c", 0);
  EXPECT_EQ(sink.emitted(), 3u);
  EXPECT_EQ(sink.dropped(), 2u);
  std::vector<Event> events = testing::retained(sink);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "c");
  EXPECT_EQ(events[0].seq, 2u);
}

TEST(RingDrop, ExactCapacityBoundaryDropsNothing) {
  TraceSink sink(4);
  for (int i = 0; i < 4; ++i) {
    sink.instant(i, Category::kSim, "tick", 0);
  }
  EXPECT_EQ(sink.emitted(), 4u);
  EXPECT_EQ(sink.dropped(), 0u);
  EXPECT_EQ(sink.size(), 4u);
}

TEST(RingDrop, OnePastCapacityDropsExactlyTheOldest) {
  TraceSink sink(4);
  for (int i = 0; i < 5; ++i) {
    sink.instant(i, Category::kSim, "tick", 0, {Field::n("i", i)});
  }
  EXPECT_EQ(sink.dropped(), 1u);
  std::vector<Event> events = testing::retained(sink);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().fields[0].num, 1.0);
  EXPECT_DOUBLE_EQ(events.back().fields[0].num, 4.0);
}

TEST(RingDrop, MultipleFullWrapsKeepCountersExact) {
  TraceSink sink(3);
  // 3 full wraps plus one: 10 emitted, the newest 3 retained.
  for (int i = 0; i < 10; ++i) {
    sink.instant(i, Category::kSim, "tick", 0, {Field::n("i", i)});
  }
  EXPECT_EQ(sink.emitted(), 10u);
  EXPECT_EQ(sink.dropped(), 7u);
  std::vector<Event> events = testing::retained(sink);
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_DOUBLE_EQ(events[k].fields[0].num, 7.0 + k);
    EXPECT_EQ(events[k].seq, 7u + k);
  }
}

TEST(RingDrop, ClearAfterWrapKeepsLifetimeCountersAndEmptiesRing) {
  TraceSink sink(2);
  for (int i = 0; i < 5; ++i) {
    sink.instant(i, Category::kSim, "tick", 0);
  }
  EXPECT_EQ(sink.dropped(), 3u);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.emitted(), 5u);
  EXPECT_EQ(sink.dropped(), 3u);
  // The ring is usable again after clear(); seq keeps rising.
  sink.instant(9.0, Category::kSim, "after", 0);
  std::vector<Event> events = testing::retained(sink);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].seq, 5u);
}

}  // namespace
}  // namespace vodx::obs
