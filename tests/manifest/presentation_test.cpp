#include "manifest/presentation.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vodx::manifest {
namespace {

ClientTrack make_track(const std::string& id, Bps declared, int segments,
                       Seconds seg_dur, Bytes seg_size = 0) {
  ClientTrack track;
  track.id = id;
  track.declared_bitrate = declared;
  for (int i = 0; i < segments; ++i) {
    track.add_segment(seg_dur).size = seg_size;
  }
  track.sizes_known = seg_size > 0;
  return track;
}

TEST(ByteRangeTest, ParseAndToString) {
  ByteRange r = ByteRange::parse("100-299");
  EXPECT_EQ(r.first, 100);
  EXPECT_EQ(r.last, 299);
  EXPECT_EQ(r.length(), 200);
  EXPECT_EQ(r.to_string(), "100-299");
}

TEST(ByteRangeTest, ParseRejectsMalformed) {
  EXPECT_THROW(ByteRange::parse("100"), ParseError);
  EXPECT_THROW(ByteRange::parse("300-100"), ParseError);
  EXPECT_THROW(ByteRange::parse("a-b"), ParseError);
}

TEST(ClientTrack, DurationAndStarts) {
  ClientTrack t = make_track("v", 1e6, 5, 4);
  EXPECT_DOUBLE_EQ(t.duration(), 20);
  EXPECT_DOUBLE_EQ(t.segment_start(0), 0);
  EXPECT_DOUBLE_EQ(t.segment_start(3), 12);
  EXPECT_DOUBLE_EQ(t.segment_start(5), 20);
  EXPECT_EQ(t.segments[3].index, 3);
}

TEST(ClientTrack, AverageActualBitrate) {
  ClientTrack with = make_track("v", 1e6, 5, 4, 500000);
  EXPECT_DOUBLE_EQ(with.average_actual_bitrate(), 500000 * 8.0 / 4.0);
  ClientTrack without = make_track("v", 1e6, 5, 4);
  EXPECT_DOUBLE_EQ(without.average_actual_bitrate(), 0);
}

TEST(ClientSegment, ActualBitrateOnlyWhenSized) {
  ClientSegment s;
  s.duration = 4;
  s.size = 0;
  EXPECT_DOUBLE_EQ(s.actual_bitrate(), 0);
  s.size = 1000;
  EXPECT_DOUBLE_EQ(s.actual_bitrate(), 2000);
}

TEST(Presentation, SortTracksAscending) {
  Presentation p;
  p.video.push_back(make_track("hi", 2e6, 2, 4));
  p.video.push_back(make_track("lo", 1e6, 2, 4));
  p.sort_tracks();
  EXPECT_EQ(p.video[0].id, "lo");
  EXPECT_EQ(p.video[1].id, "hi");
}

TEST(Presentation, DurationFromFirstVideoTrack) {
  Presentation p;
  p.video.push_back(make_track("v", 1e6, 3, 5));
  EXPECT_DOUBLE_EQ(p.duration(), 15);
  EXPECT_FALSE(p.separate_audio());
  p.audio.push_back(make_track("a", 96e3, 10, 2));
  EXPECT_TRUE(p.separate_audio());
}

}  // namespace
}  // namespace vodx::manifest
