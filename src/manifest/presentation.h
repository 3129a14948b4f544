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
//
// A Resolution is the result of both steps over one root manifest, kept
// immutable: the tracks in manifest order with the bytes each was resolved
// from, the sorted Presentation, and a locator from a request (URL plus
// optional byte range) to its segment. Every title builds one of its own
// manifests (http::OriginServer::resolution()). Since both steps are pure, a
// caller holding bytes equal to the title's takes the title's result instead
// of resolving again — the player per track, the traffic analyzer for a
// whole log — and any other bytes go through the two steps as usual
// (DESIGN.md "Manifest resolution").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
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
  /// Presentation start: the durations of the segments before it, summed
  /// in order (ClientTrack::add_segment sets it).
  Seconds start = 0;
  /// Where to fetch the segment: `url`, with `range` if ranged. An empty
  /// `url` is its track's media_url (ClientTrack::url_of).
  std::string url;
  std::optional<ByteRange> range;
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
  /// The media file a byte-range track's segments are ranges of, held once
  /// for all of them (their `url` is empty); empty for other tracks.
  std::string media_url;
  std::vector<ClientSegment> segments;
  bool sizes_known = false;

  /// Appends a segment of `duration` with the next index and its start.
  ClientSegment& add_segment(Seconds duration);
  /// The URL segment `s` of this track is fetched from.
  const std::string& url_of(const ClientSegment& s) const {
    return s.url.empty() ? media_url : s.url;
  }

  Seconds duration() const;
  /// The stored start of segment `index`; the track's duration for
  /// index == segments.size().
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
  /// Sorts ladders ascending by declared bitrate, ties in the order added
  /// (call after building).
  void sort_tracks();
};

/// A presentation shared read-only, e.g. by every session of a title.
using PresentationPtr = std::shared_ptr<const Presentation>;

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

/// Where a request lands on a presentation's ladders.
struct SegmentLocation {
  media::ContentType type = media::ContentType::kVideo;
  int level = 0;  ///< position in the ladder of `type`
  int index = 0;  ///< segment index
  /// False when the request covers only part of a byte-range segment (one
  /// piece of a split download).
  bool whole = true;
};

/// One root manifest resolved with the resources its tracks wait on; see
/// the file comment. Immutable once built, so threads may share it.
class Resolution {
 public:
  /// The bytes of a pending track's resource, or nullptr when there are
  /// none. A returned string must stay valid until the next call.
  using Fetch = std::function<const std::string*(const MediaRef&)>;

  /// One track of the root manifest, in manifest order.
  struct Source {
    /// The draft the root manifest gave, when the track waits on a
    /// resource; empty when the root manifest completed it.
    std::optional<TrackDraft> draft;
    /// The bytes `fetch` gave for that resource; empty when it gave none.
    std::optional<std::string> body;
    /// The resolved track in presentation(); nullptr when dropped.
    const ClientTrack* track = nullptr;
  };

  /// Resolves root manifest `body` fetched from `url` and completes each
  /// pending track from `fetch`. A pending track `fetch` has no bytes for
  /// stays on the ladder without segments when it is an HLS variant (its
  /// master playlist still declares it) and is dropped otherwise. Throws
  /// ParseError as resolve_manifest / complete_track do.
  Resolution(Protocol protocol, std::string url, std::string body,
             const Fetch& fetch);
  /// Indexes tracks that did not come from a root manifest (the traffic
  /// analyzer's footnote-4 ladder); sorts them by declared bitrate.
  explicit Resolution(Presentation presentation);

  const Presentation& presentation() const { return *presentation_; }
  const PresentationPtr& shared_presentation() const { return presentation_; }

  /// This resolution's tracks when `protocol`, `url` and `body` equal the
  /// root manifest it was resolved from; nullptr otherwise.
  const std::vector<Source>* sources_for(Protocol protocol,
                                         std::string_view url,
                                         std::string_view body) const;

  /// True when resolving the same root manifest with `fetch` would give
  /// this resolution: `fetch` gives every pending track the bytes it was
  /// completed from (and none where it got none).
  bool same_resources(const Fetch& fetch) const;

  /// The segment a request for `url` (with `range`, if ranged) fetches, or
  /// nullopt. The URL is found with one hash probe; byte ranges then by
  /// binary search over the ranges of their URL, which tile the file.
  std::optional<SegmentLocation> locate(
      std::string_view url, const std::optional<ByteRange>& range) const;

 private:
  struct Ranged {
    ByteRange range;
    SegmentLocation at;
  };
  /// What one URL serves: a whole segment, and/or the byte-range segments
  /// ranged_[first, first + count), sorted by their first byte.
  struct UrlSlot {
    std::string_view url;  ///< views a URL string of presentation_
    std::optional<SegmentLocation> whole;
    std::size_t first = 0;
    std::size_t count = 0;
  };

  void index();
  /// The table_ position holding `url`'s slot, or the free one ending its
  /// probe.
  std::size_t probe(std::string_view url) const;
  /// The slot of `url`, added if it has none (index() only).
  UrlSlot& slot_for(std::string_view url);

  Protocol protocol_ = Protocol::kHls;
  std::string url_;
  std::string body_;
  std::vector<Source> sources_;
  PresentationPtr presentation_;
  /// One slot per segment URL, in one array rather than a node each.
  std::vector<UrlSlot> slots_;
  /// Open addressing over slots_ by URL hash: a power-of-two table at most
  /// half full, of slot position + 1 (0 = free).
  std::vector<std::uint32_t> table_;
  std::vector<Ranged> ranged_;
};

}  // namespace vodx::manifest
