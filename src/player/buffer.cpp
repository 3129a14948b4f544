#include "player/buffer.h"

#include <algorithm>

#include "common/error.h"

namespace vodx::player {

void PlaybackBuffer::append(BufferedSegment segment) {
  VODX_ASSERT(segment.index > consumed_up_to_,
              "appending a segment already consumed");
  auto it = std::lower_bound(segments_.begin(), segments_.end(), segment.index,
                             [](const BufferedSegment& s, int index) {
                               return s.index < index;
                             });
  VODX_ASSERT(it == segments_.end() || it->index != segment.index,
              "segment index already buffered; use replace()");
  segments_.insert(it, std::move(segment));
  ++epoch_;
}

BufferedSegment PlaybackBuffer::replace(BufferedSegment segment) {
  VODX_ASSERT(allow_mid_replacement_,
              "this buffer design cannot discard a segment in the middle");
  auto it = std::find_if(segments_.begin(), segments_.end(),
                         [&](const BufferedSegment& s) {
                           return s.index == segment.index;
                         });
  VODX_ASSERT(it != segments_.end(), "replacing a segment not in the buffer");
  BufferedSegment old = *it;
  *it = std::move(segment);
  ++epoch_;
  return old;
}

std::vector<BufferedSegment> PlaybackBuffer::discard_from(int from_index) {
  std::vector<BufferedSegment> discarded;
  auto it = std::lower_bound(segments_.begin(), segments_.end(), from_index,
                             [](const BufferedSegment& s, int index) {
                               return s.index < index;
                             });
  discarded.assign(it, segments_.end());
  segments_.erase(it, segments_.end());
  ++epoch_;
  return discarded;
}

void PlaybackBuffer::consume_until(Seconds position) {
  while (!segments_.empty() &&
         segments_.front().start + segments_.front().duration <=
             position + 1e-9) {
    consumed_up_to_ = std::max(consumed_up_to_, segments_.front().index);
    segments_.pop_front();
    ++epoch_;
  }
}

Seconds PlaybackBuffer::contiguous_end(Seconds position) const {
  if (memo_valid_ && memo_epoch_ == epoch_) {
    if (memo_position_ == position) return memo_end_;
    // A position strictly inside the cached contiguous run resolves to the
    // same run end: segments cannot appear or vanish without an epoch bump,
    // and the walk from any interior position reaches the same gap. The
    // 1e-9 guard matches the walk's own "already behind" epsilon — at the
    // run boundary we fall through and recompute.
    if (position >= memo_position_ && position < memo_end_ - 1e-9) {
      memo_position_ = position;
      return memo_end_;
    }
  }
  Seconds end = position;
  int expected_index = -1;
  for (const BufferedSegment& s : segments_) {
    if (s.start + s.duration <= position + 1e-9) continue;  // already behind
    if (s.start > end + 1e-9) break;                        // gap in time
    if (expected_index >= 0 && s.index != expected_index) break;  // index gap
    end = s.start + s.duration;
    expected_index = s.index + 1;
  }
  end = std::max(end, position);
  memo_epoch_ = epoch_;
  memo_position_ = position;
  memo_end_ = end;
  memo_valid_ = true;
  return end;
}

int PlaybackBuffer::contiguous_count(Seconds position) const {
  int count = 0;
  int expected_index = -1;
  Seconds end = position;
  for (const BufferedSegment& s : segments_) {
    if (s.start + s.duration <= position + 1e-9) continue;
    if (s.start > end + 1e-9) break;
    if (expected_index >= 0 && s.index != expected_index) break;
    end = s.start + s.duration;
    expected_index = s.index + 1;
    ++count;
  }
  return count;
}

const BufferedSegment* PlaybackBuffer::find(int index) const {
  auto it = std::lower_bound(segments_.begin(), segments_.end(), index,
                             [](const BufferedSegment& s, int i) {
                               return s.index < i;
                             });
  if (it == segments_.end() || it->index != index) return nullptr;
  return &*it;
}

const BufferedSegment* PlaybackBuffer::at_position(Seconds position) const {
  for (const BufferedSegment& s : segments_) {
    if (s.start <= position + 1e-9 &&
        position < s.start + s.duration - 1e-9) {
      return &s;
    }
  }
  return nullptr;
}

}  // namespace vodx::player
