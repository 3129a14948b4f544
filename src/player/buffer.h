// Client playback buffer.
//
// Mirrors ExoPlayer's design discussed in §4.1.2: a double-ended queue
// ordered by segment index — the network appends at one end, the renderer
// consumes at the other. Discarding a suffix (cascade SR) is natural;
// replacing a single segment in the middle is the operation ExoPlayer lacks
// and the paper's improved SR needs, so we expose it behind a capability
// flag: constructing with `allow_mid_replacement = false` makes replace()
// a programming error, documenting which player designs could legally do it.
//
// With parallel segment downloads (D1) segments can arrive out of order, so
// the deque may contain gaps; playback only ever consumes the contiguous
// prefix.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/units.h"
#include "media/types.h"

namespace vodx::player {

struct BufferedSegment {
  media::ContentType type = media::ContentType::kVideo;
  int index = 0;
  int level = 0;
  Bps declared_bitrate = 0;
  media::Resolution resolution;
  Seconds start = 0;     ///< presentation time of the first frame
  Seconds duration = 0;
  Bytes size = 0;        ///< bytes spent downloading it
  Seconds downloaded_at = 0;
};

class PlaybackBuffer {
 public:
  explicit PlaybackBuffer(bool allow_mid_replacement = true)
      : allow_mid_replacement_(allow_mid_replacement) {}

  /// Inserts a newly downloaded segment (kept ordered by index). The index
  /// must not already be buffered and must be ahead of consumed content.
  void append(BufferedSegment segment);

  /// Swaps in a new rendition of an already-buffered index (improved SR).
  /// Returns the segment that was replaced.
  BufferedSegment replace(BufferedSegment segment);

  /// Discards every buffered segment with index >= `from_index` (cascade
  /// SR / ExoPlayer suffix discard). Returns the discarded segments.
  std::vector<BufferedSegment> discard_from(int from_index);

  /// Drops segments whose presentation interval ends at or before `position`
  /// (the renderer consumed them).
  void consume_until(Seconds position);

  bool empty() const { return segments_.empty(); }

  /// Presentation time up to which playback can proceed without gaps,
  /// starting from `position`. Returns `position` if nothing is buffered at
  /// that point.
  Seconds contiguous_end(Seconds position) const;

  /// Buffered seconds ahead of `position` (contiguous region only).
  Seconds buffered_ahead(Seconds position) const {
    return contiguous_end(position) - position;
  }

  /// Number of segments in the contiguous region covering `position`.
  int contiguous_count(Seconds position) const;

  const BufferedSegment* find(int index) const;

  /// Segment whose presentation interval covers `position`, or nullptr.
  const BufferedSegment* at_position(Seconds position) const;

  const std::deque<BufferedSegment>& segments() const { return segments_; }

 private:
  std::deque<BufferedSegment> segments_;
  bool allow_mid_replacement_;
  int consumed_up_to_ = -1;  ///< highest index ever consumed

  // contiguous_end() is pure in (segments_, position) and the player queries
  // it several times per tick at the same position, so the last result is
  // memoized keyed on an exact position match + a mutation epoch. The memo
  // can only ever return the value the walk would have produced.
  std::uint64_t epoch_ = 0;  ///< bumped on every segment mutation
  mutable std::uint64_t memo_epoch_ = 0;
  mutable Seconds memo_position_ = 0;
  mutable Seconds memo_end_ = 0;
  mutable bool memo_valid_ = false;
};

}  // namespace vodx::player
