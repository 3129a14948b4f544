// TraceSink behaviour: ring overflow, category masking, deterministic
// ordering, scoped spans, and the exporters' output formats.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/export.h"
#include "obs/observer.h"
#include "obs/trace_sink.h"
#include "testing/trace.h"

namespace vodx::obs {
namespace {

TEST(TraceSink, RetainsEventsInEmissionOrder) {
  TraceSink sink(8);
  sink.instant(1.0, Category::kPlayer, "a", 0);
  sink.instant(2.0, Category::kPlayer, "b", 0);
  sink.instant(3.0, Category::kPlayer, "c", 0);

  std::vector<Event> events = testing::retained(sink);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_STREQ(events[1].name, "b");
  EXPECT_STREQ(events[2].name, "c");
  EXPECT_EQ(sink.emitted(), 3u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, RingOverflowKeepsNewestAndCountsDropped) {
  TraceSink sink(4);
  for (int i = 0; i < 10; ++i) {
    sink.instant(i, Category::kSim, "tick", 0, {Field::n("i", i)});
  }
  EXPECT_EQ(sink.emitted(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  EXPECT_EQ(sink.size(), 4u);

  // The window is contiguous and ends at the newest event (i = 6..9).
  std::vector<Event> events = testing::retained(sink);
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t k = 0; k < events.size(); ++k) {
    EXPECT_DOUBLE_EQ(events[k].fields[0].num, 6.0 + k);
  }
}

TEST(TraceSink, SequenceNumbersBreakTiesAtEqualSimTime) {
  TraceSink sink;
  // A burst of events at the same simulated instant (one tick can emit
  // many) must stay in emission order so exporters are deterministic.
  sink.instant(5.0, Category::kTcp, "first", 0);
  sink.instant(5.0, Category::kTcp, "second", 0);
  sink.instant(5.0, Category::kTcp, "third", 0);

  std::vector<Event> events = testing::retained(sink);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
  EXPECT_STREQ(events[0].name, "first");
  EXPECT_STREQ(events[2].name, "third");
}

TEST(TraceSink, CategoryMaskGatesEnabledCheck) {
  TraceSink sink;
  EXPECT_TRUE(sink.enabled(Category::kTcp));

  sink.set_category_mask(bit(Category::kPlayer) | bit(Category::kAbr));
  EXPECT_TRUE(sink.enabled(Category::kPlayer));
  EXPECT_TRUE(sink.enabled(Category::kAbr));
  EXPECT_FALSE(sink.enabled(Category::kTcp));
  EXPECT_FALSE(sink.enabled(Category::kSim));

  sink.enable(Category::kTcp);
  EXPECT_TRUE(sink.enabled(Category::kTcp));
  sink.disable(Category::kPlayer);
  EXPECT_FALSE(sink.enabled(Category::kPlayer));

  // The master switch overrides the mask entirely.
  sink.set_enabled(false);
  EXPECT_FALSE(sink.enabled(Category::kAbr));
}

TEST(TraceSink, TrackIdsAreStable) {
  TraceSink sink;
  const int player = sink.track("player");
  const int tcp = sink.track("tcp conn0");
  EXPECT_NE(player, tcp);
  EXPECT_EQ(sink.track("player"), player);
  EXPECT_EQ(sink.track("tcp conn0"), tcp);
  ASSERT_EQ(sink.track_names().size(), 2u);
  EXPECT_EQ(sink.track_names()[static_cast<std::size_t>(player)], "player");
}

TEST(TraceSink, ScopedSpanEmitsBeginAndEndAtClockTime) {
  TraceSink sink;
  double now = 10.0;
  sink.set_clock([&now] { return now; });
  {
    ScopedSpan span(&sink, Category::kHttp, "http.request", 0,
                    sink.now(), {Field::n("id", 7)});
    now = 12.5;
  }
  std::vector<Event> events = testing::retained(sink);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kSpanBegin);
  EXPECT_DOUBLE_EQ(events[0].sim_time, 10.0);
  EXPECT_EQ(events[1].kind, EventKind::kSpanEnd);
  EXPECT_DOUBLE_EQ(events[1].sim_time, 12.5);
}

TEST(TraceSink, ScopedSpanInactiveWhenDisabled) {
  TraceSink sink;
  sink.disable(Category::kHttp);
  { ScopedSpan span(&sink, Category::kHttp, "http.request", 0, 1.0); }
  { ScopedSpan span(nullptr, Category::kHttp, "http.request", 0, 1.0); }
  EXPECT_EQ(sink.size(), 0u);
}

TEST(TraceSink, ClearResetsRetainedWindowButNotTotals) {
  TraceSink sink(4);
  for (int i = 0; i < 6; ++i) sink.instant(i, Category::kSim, "e", 0);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
  EXPECT_EQ(sink.emitted(), 6u);
  sink.instant(7.0, Category::kSim, "after", 0);
  ASSERT_EQ(testing::retained(sink).size(), 1u);
  EXPECT_STREQ(testing::retained(sink)[0].name, "after");
}

TEST(Export, JsonlOneObjectPerLine) {
  TraceSink sink;
  const int track = sink.track("player");
  sink.instant(1.5, Category::kPlayer, "stall.begin", track,
               {Field::n("position_s", 42.0), Field::t("cause", "underrun")});
  std::ostringstream out;
  write_jsonl(sink, out);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"t\":1.5"), std::string::npos);
  EXPECT_NE(line.find("\"name\":\"stall.begin\""), std::string::npos);
  EXPECT_NE(line.find("\"cause\":\"underrun\""), std::string::npos);
  EXPECT_NE(line.find("\"position_s\":42"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST(Export, ChromeTraceHasTrackMetadataAndPhases) {
  TraceSink sink;
  const int player = sink.track("player");
  const int tcp = sink.track("tcp conn0");
  sink.begin(0.0, Category::kHttp, "http.request", tcp);
  sink.end(1.0, Category::kHttp, "http.request", tcp);
  sink.instant(2.0, Category::kPlayer, "stall.begin", player);
  sink.counter(2.0, Category::kPlayer, "buffer.video_s", player, 12.5);

  std::ostringstream out;
  write_chrome_trace(sink, out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"tcp conn0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  // Timestamps are microseconds: t=2 s must appear as 2000000.
  EXPECT_NE(json.find("2000000"), std::string::npos);
}

TEST(Export, JsonEscapeHandlesControlCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
}

TEST(Observer, TraceOnHelperChecksSinkAndCategory) {
  Observer observer;
  EXPECT_TRUE(trace_on(&observer, Category::kPlayer));
  observer.trace.disable(Category::kPlayer);
  EXPECT_FALSE(trace_on(&observer, Category::kPlayer));
  EXPECT_FALSE(trace_on(nullptr, Category::kTcp));
}

}  // namespace
}  // namespace vodx::obs
