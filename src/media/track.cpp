#include "media/track.h"

#include "common/error.h"

namespace vodx::media {

Track::Track(std::string id, ContentType type, Bps declared_bitrate,
             Resolution resolution, std::vector<Segment> segments)
    : id_(std::move(id)),
      type_(type),
      declared_bitrate_(declared_bitrate),
      resolution_(resolution),
      segments_(std::move(segments)) {
  VODX_ASSERT(!segments_.empty(), "track needs segments");
  Bytes offset = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    Segment& s = segments_[i];
    VODX_ASSERT(s.duration > 0 && s.size > 0, "segment needs duration & size");
    s.index = static_cast<int>(i);
    s.offset = offset;
    offset += s.size;
    duration_ += s.duration;
    total_size_ += s.size;
  }
}

const Segment& Track::segment(int index) const {
  VODX_ASSERT(index >= 0 && index < segment_count(), "segment out of range");
  return segments_[static_cast<std::size_t>(index)];
}

Bps Track::average_actual_bitrate() const {
  return rate_of(total_size_, duration_);
}

}  // namespace vodx::media
