#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/error.h"
#include "trace/cellular_profiles.h"

namespace vodx::trace {
namespace {

TEST(TraceIo, TextRoundTripPreservesSamples) {
  net::BandwidthTrace original = cellular_profile(3);
  net::BandwidthTrace parsed = from_text(to_text(original));
  EXPECT_DOUBLE_EQ(parsed.duration(), original.duration());
  for (Seconds t = 0; t < original.duration(); t += 1) {
    EXPECT_NEAR(parsed.at(t), original.at(t), 0.5) << t;
  }
  EXPECT_EQ(parsed.name(), "Profile 3");
}

TEST(TraceIo, ParsesCommentsAndBlankLines) {
  net::BandwidthTrace t =
      from_text("# comment\n\n1000000\n# mid comment\n2000000\n");
  EXPECT_DOUBLE_EQ(t.duration(), 2);
  EXPECT_DOUBLE_EQ(t.at(0), 1e6);
  EXPECT_DOUBLE_EQ(t.at(1), 2e6);
}

TEST(TraceIo, ExplicitNameWins) {
  net::BandwidthTrace t = from_text("# name: recorded\n1000\n", "override");
  EXPECT_EQ(t.name(), "override");
}

TEST(TraceIo, RejectsGarbage) {
  EXPECT_THROW(from_text(""), ParseError);
  EXPECT_THROW(from_text("# only comments\n"), ParseError);
  EXPECT_THROW(from_text("12x34\n"), ParseError);
  EXPECT_THROW(from_text("1000\nnan\n"), ParseError);
  EXPECT_THROW(from_text("inf\n"), ParseError);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/vodx_trace_test.txt";
  net::BandwidthTrace original = cellular_profile(1);
  save_trace(original, path);
  net::BandwidthTrace loaded = load_trace(path);
  EXPECT_NEAR(loaded.mean(), original.mean(), 2);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace("/nonexistent/nope.txt"), Error);
}

}  // namespace
}  // namespace vodx::trace
