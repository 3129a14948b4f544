// Exporter edge cases: JSON escaping of hostile strings, the JSONL
// dropped-event summary line, and the canonical metrics_json rendering.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"
#include "testing/merge.h"

namespace vodx::obs {
namespace {

using vodx::testing::merge;

TEST(JsonEscape, EmbeddedNulSurvivesAsUnicodeEscape) {
  const std::string with_nul("a\0b", 3);
  EXPECT_EQ(json_escape(with_nul), "a\\u0000b");
}

TEST(JsonEscape, MultiByteUtf8PassesThroughUntouched) {
  // Non-ASCII bytes are > 0x1f once read unsigned; a signed-char comparison
  // would misclassify them as control characters and mangle the sequence.
  const std::string utf8 = "r\xC3\xA9sum\xC3\xA9 \xE2\x86\x92 \xF0\x9F\x8E\xAC";
  EXPECT_EQ(json_escape(utf8), utf8);
}

TEST(JsonlExport, EndsWithDroppedSummaryLine) {
  TraceSink sink(4);
  for (int i = 0; i < 10; ++i) sink.instant(i, Category::kSim, "tick", 0);
  std::ostringstream out;
  write_jsonl(sink, out);
  const std::string text = out.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  const std::size_t last_start = text.rfind('\n', text.size() - 2);
  const std::string last = text.substr(last_start + 1);
  EXPECT_NE(last.find("\"kind\":\"summary\""), std::string::npos);
  EXPECT_NE(last.find("\"name\":\"obs.dropped\""), std::string::npos);
  EXPECT_NE(last.find("\"emitted\":10"), std::string::npos);
  EXPECT_NE(last.find("\"dropped\":6"), std::string::npos);
  EXPECT_NE(last.find("\"retained\":4"), std::string::npos);
}

TEST(JsonlExport, SummaryReportsZeroDroppedWhenNothingOverflowed) {
  TraceSink sink;
  sink.instant(1.0, Category::kSim, "tick", 0);
  std::ostringstream out;
  write_jsonl(sink, out);
  EXPECT_NE(out.str().find("\"dropped\":0"), std::string::npos);
}

TEST(MetricsJson, RendersEveryMetricTypeAndIsByteStable) {
  MetricsRegistry r;
  r.counter("http.requests").add(42);
  r.gauge("buffer_s").set(1.25);
  Histogram& h = r.histogram("goodput", {1.0, 8.0});
  h.record(0.5);
  h.record(5.0);

  const std::string json = metrics_json(r.snapshot(600.0));
  EXPECT_EQ(json, metrics_json(r.snapshot(600.0)));  // byte-stable
  EXPECT_EQ(json.find('\n'), std::string::npos);     // single line
  EXPECT_NE(json.find("\"sim_time\":600"), std::string::npos);
  EXPECT_NE(json.find("\"http.requests\":{\"type\":\"counter\",\"count\":42}"),
            std::string::npos);
  EXPECT_NE(json.find("\"type\":\"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"bounds\":[1,8]"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[1,1,0]"), std::string::npos);
}

TEST(MetricsJson, MergedSnapshotRendersIdenticallyToItsValue) {
  // The determinism harness compares merged snapshots via this string; a
  // merge followed by a render must equal rendering the merged value again.
  MetricsRegistry r1;
  r1.counter("c").add(1);
  MetricsRegistry r2;
  r2.counter("c").add(2);
  const MetricsSnapshot m = merge(r1.snapshot(1.0), r2.snapshot(2.0));
  EXPECT_EQ(metrics_json(m), metrics_json(m));
  EXPECT_NE(metrics_json(m).find("\"count\":3"), std::string::npos);
}

}  // namespace
}  // namespace vodx::obs
