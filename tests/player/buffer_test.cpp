#include "player/buffer.h"

#include <gtest/gtest.h>

namespace vodx::player {
namespace {

BufferedSegment seg(int index, int level = 0, Seconds duration = 4,
                    Bytes size = 1000) {
  BufferedSegment s;
  s.index = index;
  s.level = level;
  s.duration = duration;
  s.start = index * duration;
  s.size = size;
  s.resolution = media::k360p;
  return s;
}

TEST(Buffer, AppendAndContiguousEnd) {
  PlaybackBuffer buffer;
  buffer.append(seg(0));
  buffer.append(seg(1));
  EXPECT_DOUBLE_EQ(buffer.contiguous_end(0), 8);
  EXPECT_DOUBLE_EQ(buffer.buffered_ahead(3), 5);
  EXPECT_EQ(buffer.contiguous_count(0), 2);
}

TEST(Buffer, GapLimitsContiguousRegion) {
  PlaybackBuffer buffer;
  buffer.append(seg(0));
  buffer.append(seg(2));  // out-of-order arrival left a hole at 1
  EXPECT_DOUBLE_EQ(buffer.contiguous_end(0), 4);
  EXPECT_EQ(buffer.contiguous_count(0), 1);
  buffer.append(seg(1));
  EXPECT_DOUBLE_EQ(buffer.contiguous_end(0), 12);
  EXPECT_EQ(buffer.contiguous_count(0), 3);
}

TEST(Buffer, ConsumeDropsPlayedSegments) {
  PlaybackBuffer buffer;
  buffer.append(seg(0));
  buffer.append(seg(1));
  buffer.append(seg(2));
  buffer.consume_until(7.9);
  EXPECT_EQ(buffer.segments().size(), 2u);  // seg 1 still covers 7.9
  buffer.consume_until(8.0);
  EXPECT_EQ(buffer.segments().size(), 1u);
  EXPECT_EQ(buffer.segments().front().index, 2);
}

TEST(Buffer, AtPositionFindsCoveringSegment) {
  PlaybackBuffer buffer;
  buffer.append(seg(0));
  buffer.append(seg(1));
  ASSERT_NE(buffer.at_position(5.0), nullptr);
  EXPECT_EQ(buffer.at_position(5.0)->index, 1);
  EXPECT_EQ(buffer.at_position(20.0), nullptr);
}

TEST(Buffer, ReplaceSwapsRendition) {
  PlaybackBuffer buffer;
  buffer.append(seg(0, 0));
  buffer.append(seg(1, 0));
  BufferedSegment old = buffer.replace(seg(1, 2, 4, 5000));
  EXPECT_EQ(old.level, 0);
  EXPECT_EQ(buffer.find(1)->level, 2);
  EXPECT_EQ(buffer.segments().size(), 2u);
}

TEST(Buffer, DiscardFromDropsSuffix) {
  PlaybackBuffer buffer;
  for (int i = 0; i < 5; ++i) buffer.append(seg(i));
  std::vector<BufferedSegment> discarded = buffer.discard_from(2);
  EXPECT_EQ(discarded.size(), 3u);
  EXPECT_EQ(discarded.front().index, 2);
  EXPECT_EQ(buffer.segments().size(), 2u);
}

TEST(Buffer, DiscardFromBeyondEndIsNoop) {
  PlaybackBuffer buffer;
  buffer.append(seg(0));
  EXPECT_TRUE(buffer.discard_from(5).empty());
  EXPECT_EQ(buffer.segments().size(), 1u);
}

TEST(Buffer, RefetchAfterDiscardIsAppendable) {
  PlaybackBuffer buffer;
  for (int i = 0; i < 4; ++i) buffer.append(seg(i, 0));
  buffer.discard_from(2);
  buffer.append(seg(2, 3));  // the cascade refetch at a new level
  EXPECT_EQ(buffer.find(2)->level, 3);
}

TEST(BufferDeathTest, DoubleAppendAborts) {
  PlaybackBuffer buffer;
  buffer.append(seg(0));
  EXPECT_DEATH(buffer.append(seg(0)), "replace");
}

TEST(BufferDeathTest, MidReplacementNeedsCapability) {
  PlaybackBuffer buffer(/*allow_mid_replacement=*/false);
  buffer.append(seg(0));
  EXPECT_DEATH(buffer.replace(seg(0, 1)), "middle");
}

TEST(BufferDeathTest, ReplacingUnbufferedAborts) {
  PlaybackBuffer buffer;
  buffer.append(seg(0));
  EXPECT_DEATH(buffer.replace(seg(3)), "not in the buffer");
}

TEST(BufferDeathTest, AppendingConsumedIndexAborts) {
  PlaybackBuffer buffer;
  buffer.append(seg(0));
  buffer.consume_until(4.0);
  EXPECT_DEATH(buffer.append(seg(0)), "consumed");
}

TEST(Buffer, BufferedAheadFromMidSegment) {
  PlaybackBuffer buffer;
  buffer.append(seg(0));
  buffer.append(seg(1));
  EXPECT_DOUBLE_EQ(buffer.buffered_ahead(1.5), 6.5);
  EXPECT_DOUBLE_EQ(buffer.buffered_ahead(8.0), 0.0);
}

}  // namespace
}  // namespace vodx::player
