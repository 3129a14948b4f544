// Protocol-neutral client-side view of a media presentation, and the one
// translation from manifest bytes to it.
//
// Whatever HAS protocol a service speaks, after resolving its manifests the
// client and the traffic analyzer end up with this structure: tracks with
// declared bitrates and, per segment, a URL (plus optional byte range),
// duration, and — when the protocol exposes it — the exact size.
//
// Resolution is two pure steps. resolve_manifest() reads the root manifest
// (HLS master playlist, DASH MPD, SmoothStreaming manifest); each track it
// returns is either complete or names the one resource it still waits on —
// its HLS media playlist or its DASH sidx box. complete_track() finishes
// such a track from that resource's bytes. The player fetches the resources
// (player::MediaSource); the analyzer finds them on the wire.
#pragma once

#include <optional>
#include <string>
#include <string_view>
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
  Bps average_actual_bitrate() const;  ///< 0 when sizes unknown
};

struct Presentation {
  std::vector<ClientTrack> video;  ///< ascending declared bitrate
  std::vector<ClientTrack> audio;

  Seconds duration() const;
  bool separate_audio() const { return !audio.empty(); }

  /// Appends `track` to the ladder of its content type.
  void add(ClientTrack track);
  /// Sorts ladders ascending by declared bitrate (call after building).
  void sort_tracks();
};

/// A track as its root manifest describes it. Without `pending` it is
/// complete; with it, its segments come from one more resource: a media
/// playlist (an unranged reference, HLS) or a sidx box (a ranged reference
/// into the media file, DASH SegmentBase).
struct TrackDraft {
  ClientTrack track;
  std::optional<MediaRef> pending;
};

/// Translates a root manifest fetched from `url` — an HLS master playlist, a
/// clear-text DASH MPD or a SmoothStreaming manifest — into its tracks, in
/// manifest order. Throws ParseError on malformed input, on a master
/// playlist without variants and on a representation without segment
/// information.
std::vector<TrackDraft> resolve_manifest(Protocol protocol,
                                         std::string_view url,
                                         std::string_view body);

/// Completes a pending track from the bytes of the resource it waits on.
/// Throws ParseError when they are not a valid media playlist / sidx box.
ClientTrack complete_track(TrackDraft draft, std::string_view body);

}  // namespace vodx::manifest
