// Wall-clock profiler: enable gating, zone nesting (total vs self),
// cross-thread flushing and report ordering. Wall-clock durations are
// machine-dependent, so assertions check structure (counts, orderings,
// inequalities), never absolute times.
#include <gtest/gtest.h>

#include <thread>

#include "obs/profiler.h"

namespace vodx::obs {
namespace {

const ZoneStats* find_zone(const std::vector<ZoneStats>& zones,
                           const std::string& name) {
  for (const ZoneStats& z : zones) {
    if (z.name == name) return &z;
  }
  return nullptr;
}

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_profiling_enabled(false);
    profiler_reset();
  }
  void TearDown() override {
    set_profiling_enabled(false);
    profiler_reset();
  }
};

TEST_F(ProfilerTest, DisabledZonesRecordNothing) {
  {
    VODX_PROFILE_ZONE("test.disabled");
  }
  EXPECT_TRUE(profiler_report().empty());
}

TEST_F(ProfilerTest, EnabledZonesCountEntries) {
  set_profiling_enabled(true);
  for (int i = 0; i < 5; ++i) {
    VODX_PROFILE_ZONE("test.loop");
  }
  const std::vector<ZoneStats> zones = profiler_report();
  const ZoneStats* loop = find_zone(zones, "test.loop");
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->count, 5u);
  EXPECT_EQ(loop->total_ns, loop->self_ns);  // no children
}

TEST_F(ProfilerTest, ConditionalZonesTimeOnlyTheChosenEntries) {
  set_profiling_enabled(true);
  for (int i = 0; i < 10; ++i) {
    VODX_PROFILE_ZONE_IF("test.sampled", i % 4 == 0);
  }
  const std::vector<ZoneStats> zones = profiler_report();
  const ZoneStats* sampled = find_zone(zones, "test.sampled");
  ASSERT_NE(sampled, nullptr);
  EXPECT_EQ(sampled->count, 3u);  // i = 0, 4, 8
}

TEST_F(ProfilerTest, NestedZonesSplitSelfFromTotal) {
  set_profiling_enabled(true);
  {
    VODX_PROFILE_ZONE("test.outer");
    for (int i = 0; i < 3; ++i) {
      VODX_PROFILE_ZONE("test.inner");
    }
  }
  const std::vector<ZoneStats> zones = profiler_report();
  const ZoneStats* outer = find_zone(zones, "test.outer");
  const ZoneStats* inner = find_zone(zones, "test.inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 3u);
  // Outer's inclusive time covers inner; its self time excludes it.
  EXPECT_GE(outer->total_ns, inner->total_ns);
  EXPECT_EQ(outer->self_ns, outer->total_ns - inner->total_ns);
}

TEST_F(ProfilerTest, ReportSortsByTotalDescending) {
  set_profiling_enabled(true);
  {
    VODX_PROFILE_ZONE("test.a");
    VODX_PROFILE_ZONE("test.b");  // nested: strictly less inclusive time
  }
  const std::vector<ZoneStats> zones = profiler_report();
  ASSERT_EQ(zones.size(), 2u);
  EXPECT_GE(zones[0].total_ns, zones[1].total_ns);
}

TEST_F(ProfilerTest, WorkerThreadsFlushIntoTheGlobalAggregate) {
  set_profiling_enabled(true);
  std::thread worker([] {
    for (int i = 0; i < 4; ++i) {
      VODX_PROFILE_ZONE("test.worker");
    }
  });
  {
    VODX_PROFILE_ZONE("test.main");
  }
  worker.join();
  const std::vector<ZoneStats> zones = profiler_report();
  const ZoneStats* from_worker = find_zone(zones, "test.worker");
  ASSERT_NE(from_worker, nullptr);
  EXPECT_EQ(from_worker->count, 4u);
  EXPECT_NE(find_zone(zones, "test.main"), nullptr);
}

TEST_F(ProfilerTest, ResetClearsEverything) {
  set_profiling_enabled(true);
  {
    VODX_PROFILE_ZONE("test.gone");
  }
  EXPECT_FALSE(profiler_report().empty());
  profiler_reset();
  EXPECT_TRUE(profiler_report().empty());
}

TEST_F(ProfilerTest, DisableMidZoneStillClosesTheFrame) {
  set_profiling_enabled(true);
  {
    VODX_PROFILE_ZONE("test.toggled");
    set_profiling_enabled(false);
  }
  const std::vector<ZoneStats> zones = profiler_report();
  const ZoneStats* z = find_zone(zones, "test.toggled");
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(z->count, 1u);
}

}  // namespace
}  // namespace vodx::obs
