// Protocol-neutral client-side view of a media presentation.
//
// Whatever HAS protocol a service speaks, after resolving its manifests the
// client (and the traffic analyzer) ends up with this structure: tracks with
// declared bitrates and, per segment, a URL (plus optional byte range),
// duration, and — when the protocol exposes it — the exact size.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "media/types.h"

namespace vodx::manifest {

/// The three HAS protocol families the studied services use (§2.3).
enum class Protocol { kHls, kDash, kSmooth };

inline const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kHls: return "HLS";
    case Protocol::kDash: return "DASH";
    case Protocol::kSmooth: return "SmoothStreaming";
  }
  return "?";
}

struct ByteRange {
  Bytes first = 0;
  Bytes last = 0;  ///< inclusive, HTTP style

  Bytes length() const { return last - first + 1; }
  bool operator==(const ByteRange&) const = default;

  std::string to_string() const;
  /// Parses "first-last"; throws ParseError.
  static ByteRange parse(std::string_view text);
};

/// Where to fetch a piece of media.
struct MediaRef {
  std::string url;
  std::optional<ByteRange> range;

  bool operator==(const MediaRef&) const = default;
};

struct ClientSegment {
  int index = 0;
  Seconds duration = 0;
  MediaRef ref;
  /// Exact encoded size when the protocol exposes it (DASH byte ranges /
  /// sidx); 0 when unknown (HLS without ranges, SmoothStreaming).
  Bytes size = 0;

  /// Actual bitrate if the size is known, otherwise 0.
  Bps actual_bitrate() const { return size ? rate_of(size, duration) : 0.0; }
};

struct ClientTrack {
  std::string id;
  media::ContentType type = media::ContentType::kVideo;
  Bps declared_bitrate = 0;
  /// HLS AVERAGE-BANDWIDTH when the master playlist carries it (§4.2's
  /// "HLS also supports reporting the average bitrate"); 0 when absent.
  Bps average_bandwidth = 0;
  media::Resolution resolution;
  std::vector<ClientSegment> segments;
  bool sizes_known = false;

  Seconds duration() const;
  Seconds segment_start(int index) const;
  int segment_index_at(Seconds t) const;
  Bps average_actual_bitrate() const;  ///< 0 when sizes unknown
};

struct Presentation {
  std::vector<ClientTrack> video;  ///< ascending declared bitrate
  std::vector<ClientTrack> audio;

  Seconds duration() const;
  bool separate_audio() const { return !audio.empty(); }

  /// Sorts ladders ascending by declared bitrate (call after building).
  void sort_tracks();
};

}  // namespace vodx::manifest
