#include "core/traffic_analyzer.h"

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>

#include "common/error.h"
#include "http/origin_server.h"

namespace vodx::core {

namespace {

/// Apple's cellular audio guideline doubles as a classifier when the
/// manifest is unreadable: tracks this slow are audio.
constexpr Bps kAudioBitrateCeiling = 192e3;

const http::TransferRecord* find_manifest(
    const std::vector<http::TransferRecord>& records,
    manifest::Protocol* protocol, bool* encrypted) {
  for (const http::TransferRecord& r : records) {
    if (r.method != http::Method::kGet || r.body_copy.empty()) continue;
    // Failed exchanges (origin errors, injected faults) can carry arbitrary
    // bodies; only successful transfers describe the presentation.
    if (r.status < 200 || r.status >= 300) continue;
    if (r.content_type == "application/vnd.apple.mpegurl" &&
        r.body_copy.find("#EXT-X-STREAM-INF") != std::string::npos) {
      *protocol = manifest::Protocol::kHls;
      *encrypted = false;
      return &r;
    }
    if (r.content_type == "application/dash+xml") {
      *protocol = manifest::Protocol::kDash;
      *encrypted = false;
      return &r;
    }
    if (r.content_type == "application/octet-stream" &&
        http::is_scrambled(r.body_copy)) {
      *protocol = manifest::Protocol::kDash;
      *encrypted = true;
      return &r;
    }
    if (r.content_type == "text/xml" &&
        r.body_copy.find("SmoothStreamingMedia") != std::string::npos) {
      *protocol = manifest::Protocol::kSmooth;
      *encrypted = false;
      return &r;
    }
  }
  return nullptr;
}

/// The first successful GET of `ref` that carried a body.
const http::TransferRecord* find_body(
    const std::vector<http::TransferRecord>& records,
    const manifest::MediaRef& ref) {
  for (const http::TransferRecord& r : records) {
    // A failed fetch (e.g. an injected 5xx whose body is an error string)
    // is not the resource; the successful retry that follows it is.
    if (r.body_copy.empty() || r.method != http::Method::kGet ||
        r.status < 200 || r.status >= 300) {
      continue;
    }
    if (r.range == ref.range && r.url == ref.url) return &r;
  }
  return nullptr;
}

/// Footnote-4 fallback for an encrypted MPD: the tracks are the sidx boxes
/// seen on the wire, one per media file; declared bitrate := peak actual
/// segment bitrate; audio identified by bitrate.
void add_sidx_tracks(const std::vector<http::TransferRecord>& records,
                     manifest::Presentation& presentation) {
  std::map<std::string, manifest::ClientTrack> by_url;
  for (const http::TransferRecord& r : records) {
    if (r.body_copy.empty() || !r.range || r.content_type != "video/mp4" ||
        by_url.count(r.url) > 0) {
      continue;
    }
    manifest::TrackDraft draft;
    draft.pending = manifest::MediaRef{r.url, r.range};
    try {
      by_url.emplace(r.url, manifest::complete_track(std::move(draft),
                                                     r.body_copy));
    } catch (const ParseError&) {
      // A media sub-range that happens to carry bytes — not an index.
    }
  }
  for (auto& [url, track] : by_url) {
    Bps peak = 0;
    for (const manifest::ClientSegment& s : track.segments) {
      peak = std::max(peak, s.actual_bitrate());
    }
    track.id = url;
    track.type = peak < kAudioBitrateCeiling ? media::ContentType::kAudio
                                             : media::ContentType::kVideo;
    track.declared_bitrate = peak;
    track.resolution = media::typical_resolution_for(peak);
    presentation.add(std::move(track));
  }
}

/// The resolution of the manifests on the wire: the title's, when the log
/// carries byte-equal copies of its manifest and of every resource its
/// tracks wait on; otherwise one resolved from the wire into `own`. An HLS
/// variant whose media playlist never crossed the wire stays on the ladder
/// without segments; a DASH SegmentBase track whose sidx never did is
/// dropped (nothing maps to it).
const manifest::Resolution& wire_resolution(
    const http::TrafficLog& log, const http::TransferRecord& manifest_record,
    manifest::Protocol protocol, bool encrypted,
    std::optional<manifest::Resolution>& own) {
  const std::vector<http::TransferRecord>& records = log.records();
  if (encrypted) {
    manifest::Presentation presentation;
    add_sidx_tracks(records, presentation);
    return own.emplace(std::move(presentation));
  }
  const manifest::Resolution::Fetch fetch =
      [&](const manifest::MediaRef& ref) -> const std::string* {
    const http::TransferRecord* r = find_body(records, ref);
    return r != nullptr ? &r->body_copy : nullptr;
  };
  const manifest::Resolution* title = log.title();
  if (title != nullptr &&
      title->sources_for(protocol, manifest_record.url,
                         manifest_record.body_copy) != nullptr &&
      title->same_resources(fetch)) {
    return *title;
  }
  return own.emplace(protocol, manifest_record.url, manifest_record.body_copy,
                     fetch);
}

/// One ladder, in level order.
std::vector<AnalyzedTrack> ladder_of(
    const std::vector<manifest::ClientTrack>& tracks) {
  std::vector<AnalyzedTrack> ladder(tracks.size());
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const manifest::ClientTrack& track = tracks[i];
    AnalyzedTrack& out = ladder[i];
    out.type = track.type;
    out.level = static_cast<int>(i);
    out.declared_bitrate = track.declared_bitrate;
    out.resolution = track.resolution;
    out.segment_durations.reserve(track.segments.size());
    for (const manifest::ClientSegment& seg : track.segments) {
      out.segment_durations.push_back(seg.duration);
      // Range-served segments (DASH, HLS v4): sizes are on the wire.
      if (seg.range) out.segment_sizes.push_back(seg.size);
    }
  }
  return ladder;
}

}  // namespace

Seconds AnalyzedTrack::segment_start(int index) const {
  VODX_ASSERT(index >= 0 &&
                  index <= static_cast<int>(segment_durations.size()),
              "segment index out of range");
  Seconds start = 0;
  for (int i = 0; i < index; ++i) {
    start += segment_durations[static_cast<std::size_t>(i)];
  }
  return start;
}

Seconds AnalyzedTrack::nominal_segment_duration() const {
  if (segment_durations.empty()) return 0;
  std::vector<double> copy(segment_durations.begin(), segment_durations.end());
  std::nth_element(copy.begin(), copy.begin() + copy.size() / 2, copy.end());
  return copy[copy.size() / 2];
}

const AnalyzedTrack& AnalyzedTraffic::video_track(int level) const {
  VODX_ASSERT(level >= 0 && level < static_cast<int>(video_tracks.size()),
              "video level out of range");
  return video_tracks[static_cast<std::size_t>(level)];
}

int AnalyzedTraffic::max_concurrent_transfers() const {
  // Sweep over start/end events of the raw wire transfers (split downloads
  // count once per sub-request: each occupies its own connection).
  std::vector<std::pair<Seconds, int>> events;
  for (const auto& [start, end] : media_transfer_intervals) {
    events.emplace_back(start, +1);
    events.emplace_back(end, -1);
  }
  std::sort(events.begin(), events.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;  // close before open at same time
            });
  int current = 0;
  int peak = 0;
  for (const auto& [t, delta] : events) {
    current += delta;
    peak = std::max(peak, current);
  }
  return peak;
}

bool AnalyzedTraffic::non_persistent_connections() const {
  for (const SegmentDownload& d : downloads) {
    if (d.connection_use > 0) return false;
  }
  return !downloads.empty();
}

AnalyzedTraffic analyze_traffic(const http::TrafficLog& log) {
  const std::vector<http::TransferRecord>& records = log.records();
  AnalyzedTraffic out;
  out.total_payload_bytes = log.total_bytes();

  bool encrypted = false;
  const http::TransferRecord* manifest_record =
      find_manifest(records, &out.protocol, &encrypted);
  if (manifest_record == nullptr) {
    throw ParseError("no manifest found in the traffic log");
  }
  out.manifest_encrypted = encrypted;

  std::optional<manifest::Resolution> own;
  const manifest::Resolution& resolution =
      wire_resolution(log, *manifest_record, out.protocol, encrypted, own);
  out.video_tracks = ladder_of(resolution.presentation().video);
  out.audio_tracks = ladder_of(resolution.presentation().audio);

  // Walk every record and resolve it to a segment. Sub-range requests of the
  // same segment (split downloads) are merged back into one download.
  std::map<std::tuple<int, int, int>, std::size_t> partial_groups;
  for (const http::TransferRecord& r : records) {
    if (r.method != http::Method::kGet) continue;
    if (r.status < 200 || r.status >= 300) continue;  // rejected / errors
    const std::optional<manifest::SegmentLocation> key =
        resolution.locate(r.url, r.range);
    if (!key) continue;
    const bool full = key->whole;
    const auto& ladder = key->type == media::ContentType::kVideo
                             ? out.video_tracks
                             : out.audio_tracks;
    const AnalyzedTrack& track = ladder[static_cast<std::size_t>(key->level)];

    if (!full) {
      const auto group_key = std::make_tuple(
          static_cast<int>(key->type), key->level, key->index);
      auto it = partial_groups.find(group_key);
      if (it != partial_groups.end()) {
        out.media_transfer_intervals.emplace_back(
            r.requested_at, r.finish_or(r.requested_at));
        SegmentDownload& d = out.downloads[it->second];
        d.bytes += r.bytes_received;
        d.requested_at = std::min(d.requested_at, r.requested_at);
        if (r.finished()) {
          d.completed_at = std::max(d.completed_at, r.finish_time());
        }
        d.aborted = d.aborted || r.aborted;
        continue;
      }
    }

    out.media_transfer_intervals.emplace_back(r.requested_at,
                                              r.finish_or(r.requested_at));

    SegmentDownload d;
    d.type = key->type;
    d.level = key->level;
    d.index = key->index;
    d.declared_bitrate = track.declared_bitrate;
    d.resolution = track.resolution;
    d.duration = track.segment_durations.empty()
                     ? 0
                     : track.segment_durations[static_cast<std::size_t>(
                           std::min(key->index,
                                    static_cast<int>(
                                        track.segment_durations.size()) -
                                        1))];
    d.bytes = r.bytes_received;
    d.requested_at = r.requested_at;
    d.completed_at = r.finish_or(-1);
    // A record still open when the capture ends never delivered its
    // segment; analysis-wise that is an aborted transfer.
    d.aborted = r.aborted || !r.finished();
    d.connection = r.connection;
    d.connection_use = r.connection_use;
    out.downloads.push_back(d);
    if (!full) {
      partial_groups[std::make_tuple(static_cast<int>(key->type), key->level,
                                     key->index)] = out.downloads.size() - 1;
    }
  }

  std::stable_sort(out.downloads.begin(), out.downloads.end(),
                   [](const SegmentDownload& a, const SegmentDownload& b) {
                     return a.requested_at < b.requested_at;
                   });
  return out;
}


// ---------------------------------------------------------------------------
// SegmentClassifier
// ---------------------------------------------------------------------------

struct SegmentClassifier::Impl {
  explicit Impl(const http::TrafficLog& log_in) : log(log_in) {}

  const http::TrafficLog& log;
  std::size_t built_from_records = 0;
  std::optional<manifest::Resolution> own;
  const manifest::Resolution* resolution = nullptr;

  std::optional<SegmentRef> try_resolve(
      const std::string& url,
      const std::optional<manifest::ByteRange>& range) const {
    if (resolution == nullptr) return std::nullopt;
    const std::optional<manifest::SegmentLocation> at =
        resolution->locate(url, range);
    if (!at) return std::nullopt;
    return SegmentRef{at->type, at->level, at->index};
  }

  void rebuild() {
    built_from_records = log.records().size();
    resolution = nullptr;
    own.reset();
    manifest::Protocol protocol;
    bool encrypted = false;
    const http::TransferRecord* manifest_record =
        find_manifest(log.records(), &protocol, &encrypted);
    if (manifest_record == nullptr) return;
    try {
      resolution =
          &wire_resolution(log, *manifest_record, protocol, encrypted, own);
    } catch (const ParseError&) {
      // Manifests still arriving; retry on the next classify.
      own.reset();
    }
  }
};

SegmentClassifier::SegmentClassifier(const http::TrafficLog& log)
    : impl_(std::make_unique<Impl>(log)) {}

SegmentClassifier::~SegmentClassifier() = default;

std::optional<SegmentRef> SegmentClassifier::classify(
    const std::string& url, const std::optional<manifest::ByteRange>& range) {
  if (auto ref = impl_->try_resolve(url, range)) return ref;
  if (impl_->log.records().size() != impl_->built_from_records) {
    impl_->rebuild();
    return impl_->try_resolve(url, range);
  }
  return std::nullopt;
}

}  // namespace vodx::core
