#include "manifest/presentation.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"

namespace vodx::manifest {

std::string ByteRange::to_string() const {
  return std::to_string(first) + "-" + std::to_string(last);
}

ByteRange ByteRange::parse(std::string_view text) {
  std::size_t dash = text.find('-');
  if (dash == std::string_view::npos) {
    throw ParseError("byte range needs 'first-last': " + std::string(text));
  }
  ByteRange range;
  range.first = parse_int(text.substr(0, dash));
  range.last = parse_int(text.substr(dash + 1));
  if (range.last < range.first || range.first < 0) {
    throw ParseError("invalid byte range: " + std::string(text));
  }
  return range;
}

Seconds ClientTrack::duration() const {
  Seconds total = 0;
  for (const ClientSegment& s : segments) total += s.duration;
  return total;
}

Seconds ClientTrack::segment_start(int index) const {
  VODX_ASSERT(index >= 0 && index <= static_cast<int>(segments.size()),
              "segment index out of range");
  Seconds start = 0;
  for (int i = 0; i < index; ++i) {
    start += segments[static_cast<std::size_t>(i)].duration;
  }
  return start;
}

int ClientTrack::segment_index_at(Seconds t) const {
  Seconds start = 0;
  for (const ClientSegment& s : segments) {
    if (t < start + s.duration) return s.index;
    start += s.duration;
  }
  return static_cast<int>(segments.size()) - 1;
}

Bps ClientTrack::average_actual_bitrate() const {
  if (!sizes_known) return 0;
  Bytes bytes = 0;
  Seconds dur = 0;
  for (const ClientSegment& s : segments) {
    bytes += s.size;
    dur += s.duration;
  }
  return rate_of(bytes, dur);
}

Seconds Presentation::duration() const {
  return video.empty() ? 0 : video.front().duration();
}

void Presentation::sort_tracks() {
  auto by_bitrate = [](const ClientTrack& a, const ClientTrack& b) {
    return a.declared_bitrate < b.declared_bitrate;
  };
  std::sort(video.begin(), video.end(), by_bitrate);
  std::sort(audio.begin(), audio.end(), by_bitrate);
}

}  // namespace vodx::manifest
