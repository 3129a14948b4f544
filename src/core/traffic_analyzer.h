// Traffic analyzer (§2.3).
//
// Input: the proxy's raw TrafficLog. Output: per-track metadata and every
// media segment download with its track level, index, duration, bytes and
// timing. The analyzer is deliberately *protocol-generic* — it recognises
// HLS, DASH and SmoothStreaming by content and resolves the same manifests
// the client received through the client's own resolver
// (manifest::resolve_manifest / complete_track), fed with the media
// playlists and sidx boxes found on the wire. Each track's level is its
// position in the sorted ladder, and each of its segments maps a request
// through the resolution's locator (manifest::Resolution::locate):
//
//   whole resources (HLS .ts, DASH templates, SS fragments): URL -> segment,
//          one hash probe
//   byte ranges (DASH, HLS v4): (URL, range) -> segment, a binary search
//          over the URL's ranges; sub-range requests (the D3 split
//          download) are grouped back into their segment
//
// A log taken at a proxy carries its title's resolution (TrafficLog::title,
// http::OriginServer::resolution). When the log holds byte-equal copies of
// the title's manifest and of every playlist / sidx its tracks wait on —
// every session that streamed the title undisturbed — the analyzer uses the
// title's resolution as it is: nothing is parsed or indexed per log. Any
// other log (a rewritten manifest, a lost resource, no title) is resolved
// from the wire by the same code, with the same result.
//
// An HLS variant whose media playlist never crossed the wire stays on the
// ladder without segments; a DASH SegmentBase track whose sidx never did is
// dropped. When the manifest is application-layer encrypted (the D3 case),
// the analyzer falls back to the sidx boxes alone and, following the
// paper's footnote 4, uses each track's peak actual segment bitrate as its
// declared bitrate.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "http/traffic_log.h"
#include "manifest/presentation.h"
#include "media/types.h"

namespace vodx::core {

struct AnalyzedTrack {
  media::ContentType type = media::ContentType::kVideo;
  int level = 0;  ///< position in the ascending declared-bitrate ladder
  Bps declared_bitrate = 0;
  media::Resolution resolution;
  std::vector<Seconds> segment_durations;
  /// Exact sizes when the protocol exposes them (DASH); empty otherwise.
  std::vector<Bytes> segment_sizes;

  Seconds segment_start(int index) const;
  /// Median segment duration — the "segment duration" of Table 1.
  Seconds nominal_segment_duration() const;
};

struct SegmentDownload {
  media::ContentType type = media::ContentType::kVideo;
  int level = 0;
  int index = 0;
  Bps declared_bitrate = 0;
  media::Resolution resolution;
  Seconds duration = 0;       ///< media seconds
  Bytes bytes = 0;            ///< payload bytes received
  Seconds requested_at = 0;
  Seconds completed_at = -1;  ///< -1 if aborted
  bool aborted = false;
  std::string connection;
  int connection_use = 0;
};

struct AnalyzedTraffic {
  manifest::Protocol protocol = manifest::Protocol::kHls;
  bool manifest_encrypted = false;
  std::vector<AnalyzedTrack> video_tracks;  ///< ascending declared bitrate
  std::vector<AnalyzedTrack> audio_tracks;
  std::vector<SegmentDownload> downloads;   ///< by request time
  Bytes total_payload_bytes = 0;            ///< everything, manifests included

  const AnalyzedTrack& video_track(int level) const;
  /// Raw wire-level media transfer intervals (sub-range requests separate),
  /// for connection-concurrency analysis.
  std::vector<std::pair<Seconds, Seconds>> media_transfer_intervals;
  /// Maximum number of simultaneously open transfers (Table 1 "Max #TCP").
  int max_concurrent_transfers() const;
  /// True when no connection carried more than one request (§3.2).
  bool non_persistent_connections() const;
};

/// Analyzes a completed session's log. Throws ParseError if no manifest can
/// be located.
AnalyzedTraffic analyze_traffic(const http::TrafficLog& log);

/// A segment's identity within the ladder.
struct SegmentRef {
  media::ContentType type = media::ContentType::kVideo;
  int level = 0;
  int index = 0;
};

/// Live request classifier for black-box experiments running *on* the proxy
/// (e.g. "reject every video segment request after the first n", §3.3.1).
/// It builds its URL/range -> segment maps lazily from the manifests and
/// sidx boxes already observed in the traffic log — the same vantage point
/// the paper's proxy has.
class SegmentClassifier {
 public:
  explicit SegmentClassifier(const http::TrafficLog& log);
  ~SegmentClassifier();

  SegmentClassifier(const SegmentClassifier&) = delete;
  SegmentClassifier& operator=(const SegmentClassifier&) = delete;

  /// Classifies a request; nullopt when it is not a media segment (or the
  /// manifest describing it has not crossed the wire yet).
  std::optional<SegmentRef> classify(
      const std::string& url,
      const std::optional<manifest::ByteRange>& range);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vodx::core
