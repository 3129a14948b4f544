#include "core/traffic_analyzer.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <tuple>

#include "common/error.h"
#include "common/strings.h"
#include "http/origin_server.h"
#include "manifest/dash_mpd.h"
#include "manifest/hls.h"
#include "manifest/smooth.h"
#include "manifest/uri.h"
#include "media/sidx.h"

namespace vodx::core {

namespace {

/// Apple's cellular audio guideline doubles as a classifier when the
/// manifest is unreadable: tracks this slow are audio.
constexpr Bps kAudioBitrateCeiling = 192e3;

/// Map from what is observable on the wire to segments.
class RequestResolver {
 public:
  /// Whole-resource segments (HLS .ts files, SS fragments): URL -> segment.
  std::map<std::string, SegmentRef> by_url;

  /// Range-served files (DASH): URL -> list of (segment range, key).
  struct RangedSegment {
    manifest::ByteRange range;
    SegmentRef key;
  };
  std::map<std::string, std::vector<RangedSegment>> by_range;

  /// Resolves a record to a segment. `full_coverage` reports whether the
  /// request covered the whole segment (false = sub-range of a split
  /// download).
  std::optional<SegmentRef> resolve(const http::TransferRecord& record,
                                    bool* full_coverage) const {
    *full_coverage = true;
    if (auto it = by_url.find(record.url); it != by_url.end()) {
      return it->second;
    }
    auto it = by_range.find(record.url);
    if (it == by_range.end() || !record.range) return std::nullopt;
    for (const RangedSegment& seg : it->second) {
      if (record.range->first >= seg.range.first &&
          record.range->last <= seg.range.last) {
        *full_coverage = *record.range == seg.range;
        return seg.key;
      }
    }
    return std::nullopt;
  }
};

struct LadderBuild {
  std::vector<AnalyzedTrack> video;
  std::vector<AnalyzedTrack> audio;
  RequestResolver resolver;
};

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

// --- HLS --------------------------------------------------------------

LadderBuild build_hls(const std::vector<http::TransferRecord>& records,
                      const http::TransferRecord& master_record) {
  LadderBuild out;
  manifest::HlsMasterPlaylist master =
      manifest::HlsMasterPlaylist::parse(master_record.body_copy);
  std::sort(master.variants.begin(), master.variants.end(),
            [](const manifest::HlsVariant& a, const manifest::HlsVariant& b) {
              return a.bandwidth < b.bandwidth;
            });

  for (int level = 0; level < static_cast<int>(master.variants.size());
       ++level) {
    const manifest::HlsVariant& variant =
        master.variants[static_cast<std::size_t>(level)];
    AnalyzedTrack track;
    track.type = media::ContentType::kVideo;
    track.level = level;
    track.declared_bitrate = variant.bandwidth;
    track.resolution = variant.resolution;

    const std::string playlist_url =
        manifest::uri_resolve(master_record.url, variant.uri);
    for (const http::TransferRecord& r : records) {
      if (r.url != playlist_url || r.body_copy.empty()) continue;
      // A failed fetch of the playlist URL (e.g. an injected 5xx whose
      // body is an error string) is not a playlist; the successful retry
      // that follows it is.
      if (r.status < 200 || r.status >= 300) continue;
      manifest::HlsMediaPlaylist playlist =
          manifest::HlsMediaPlaylist::parse(r.body_copy);
      int index = 0;
      for (const manifest::HlsMediaSegment& seg : playlist.segments) {
        track.segment_durations.push_back(seg.duration);
        const std::string seg_url =
            manifest::uri_resolve(playlist_url, seg.uri);
        if (seg.byterange) {
          // HLS v4 byte-range segments: sizes are on the wire, like DASH.
          track.segment_sizes.push_back(seg.byterange->length());
          out.resolver.by_range[seg_url].push_back(
              {*seg.byterange,
               SegmentRef{media::ContentType::kVideo, level, index}});
        } else {
          out.resolver.by_url[seg_url] =
              SegmentRef{media::ContentType::kVideo, level, index};
        }
        ++index;
      }
      break;
    }
    out.video.push_back(std::move(track));
  }
  return out;
}

// --- DASH --------------------------------------------------------------

void add_sidx_track(LadderBuild& out, const std::string& media_url,
                    const media::SidxBox& sidx, media::ContentType type,
                    Bps declared, media::Resolution resolution,
                    manifest::ByteRange index_range) {
  AnalyzedTrack track;
  track.type = type;
  track.declared_bitrate = declared;
  track.resolution = resolution;
  std::vector<RequestResolver::RangedSegment> ranged;
  Bytes offset = index_range.last + 1 + static_cast<Bytes>(sidx.first_offset);
  int index = 0;
  for (const media::SidxReference& ref : sidx.references) {
    const Seconds duration =
        static_cast<double>(ref.subsegment_duration) / sidx.timescale;
    track.segment_durations.push_back(duration);
    track.segment_sizes.push_back(static_cast<Bytes>(ref.referenced_size));
    ranged.push_back({manifest::ByteRange{
                          offset,
                          offset + static_cast<Bytes>(ref.referenced_size) - 1},
                      SegmentRef{type, 0, index++}});
    offset += static_cast<Bytes>(ref.referenced_size);
  }
  auto& ladder = type == media::ContentType::kVideo ? out.video : out.audio;
  ladder.push_back(std::move(track));
  out.resolver.by_range[media_url] = std::move(ranged);
}

/// Levels are assigned after all tracks are known (ascending declared).
void finalize_levels(LadderBuild& out) {
  auto assign = [&](std::vector<AnalyzedTrack>& ladder,
                    media::ContentType type) {
    std::sort(ladder.begin(), ladder.end(),
              [](const AnalyzedTrack& a, const AnalyzedTrack& b) {
                return a.declared_bitrate < b.declared_bitrate;
              });
    // Rewrite the resolver's level fields to match the sorted order: match
    // tracks back by declared bitrate through a url->level map built below.
    for (int level = 0; level < static_cast<int>(ladder.size()); ++level) {
      ladder[static_cast<std::size_t>(level)].level = level;
    }
    (void)type;
  };
  assign(out.video, media::ContentType::kVideo);
  assign(out.audio, media::ContentType::kAudio);
}

LadderBuild build_dash(const std::vector<http::TransferRecord>& records,
                       const http::TransferRecord& mpd_record,
                       bool encrypted) {
  LadderBuild out;

  // SegmentTemplate representations map by expanded URL; their resolver
  // levels can only be assigned after the ladders are level-sorted.
  struct TemplateTrack {
    media::ContentType type;
    Bps declared;
    std::string mpd_url;
    manifest::DashRepresentation rep;
  };
  std::vector<TemplateTrack> template_tracks;

  // Collect every sidx observed on the wire: url -> (range, box).
  struct SidxSeen {
    manifest::ByteRange range;
    media::SidxBox box;
  };
  std::map<std::string, SidxSeen> sidx_seen;
  for (const http::TransferRecord& r : records) {
    if (r.body_copy.empty() || !r.range || r.content_type != "video/mp4") {
      continue;
    }
    try {
      sidx_seen.emplace(r.url, SidxSeen{*r.range,
                                        media::parse_sidx(r.body_copy)});
    } catch (const ParseError&) {
      // A media sub-range that happens to carry bytes — not an index.
    }
  }

  if (encrypted) {
    // Footnote-4 fallback: tracks are whatever sidx boxes we saw; declared
    // bitrate := peak actual segment bitrate; audio identified by bitrate.
    struct Pending {
      std::string url;
      SidxSeen seen;
      Bps peak;
    };
    std::vector<Pending> pendings;
    for (const auto& [url, seen] : sidx_seen) {
      Bps peak = 0;
      for (const media::SidxReference& ref : seen.box.references) {
        const Seconds d =
            static_cast<double>(ref.subsegment_duration) / seen.box.timescale;
        peak = std::max(peak, rate_of(static_cast<Bytes>(ref.referenced_size),
                                      d));
      }
      pendings.push_back({url, seen, peak});
    }
    std::sort(pendings.begin(), pendings.end(),
              [](const Pending& a, const Pending& b) { return a.peak < b.peak; });
    for (const Pending& p : pendings) {
      const bool audio = p.peak < kAudioBitrateCeiling;
      add_sidx_track(out, p.url, p.seen.box,
                     audio ? media::ContentType::kAudio
                           : media::ContentType::kVideo,
                     p.peak, media::typical_resolution_for(p.peak),
                     p.seen.range);
    }
  } else {
    manifest::DashMpd mpd = manifest::DashMpd::parse(mpd_record.body_copy);
    for (const manifest::DashAdaptationSet& set : mpd.adaptation_sets) {
      for (const manifest::DashRepresentation& rep : set.representations) {
        const std::string media_url =
            manifest::uri_resolve(mpd_record.url, rep.base_url);
        if (!rep.media_template.empty()) {
          AnalyzedTrack track;
          track.type = set.content_type;
          track.declared_bitrate = rep.bandwidth;
          track.resolution = rep.resolution;
          track.segment_durations = rep.template_durations;
          template_tracks.push_back(
              {set.content_type, rep.bandwidth, mpd_record.url, rep});
          auto& ladder = set.content_type == media::ContentType::kVideo
                             ? out.video
                             : out.audio;
          ladder.push_back(std::move(track));
        } else if (!rep.segments.empty()) {
          AnalyzedTrack track;
          track.type = set.content_type;
          track.declared_bitrate = rep.bandwidth;
          track.resolution = rep.resolution;
          std::vector<RequestResolver::RangedSegment> ranged;
          int index = 0;
          for (const manifest::DashSegmentRef& ref : rep.segments) {
            track.segment_durations.push_back(ref.duration);
            track.segment_sizes.push_back(ref.media_range.length());
            ranged.push_back(
                {ref.media_range, SegmentRef{set.content_type, 0, index++}});
          }
          auto& ladder = set.content_type == media::ContentType::kVideo
                             ? out.video
                             : out.audio;
          ladder.push_back(std::move(track));
          out.resolver.by_range[media_url] = std::move(ranged);
        } else if (rep.index_range) {
          auto it = sidx_seen.find(media_url);
          if (it == sidx_seen.end()) continue;  // track never touched
          add_sidx_track(out, media_url, it->second.box, set.content_type,
                         rep.bandwidth, rep.resolution, *rep.index_range);
        }
      }
    }
  }

  // Fix up levels: the resolver entries carry level 0 placeholders; rebuild
  // them by matching each url's track through declared bitrate order.
  finalize_levels(out);
  // Re-associate: for range-based resolvers we need url -> level. Walk the
  // ladders in final order and recompute peak/declared match by durations
  // object identity: simplest is to rebuild levels by declared bitrate rank.
  std::map<std::string, int> url_level;
  {
    // Reconstruct the per-url declared bitrate used at insertion time.
    // Range resolvers were inserted in the same order as ladder entries, so
    // match by segment count + total size.
    for (auto& [url, ranged] : out.resolver.by_range) {
      // Find the ladder entry whose size list matches this url's ranges.
      const media::ContentType type = ranged.front().key.type;
      const auto& ladder =
          type == media::ContentType::kVideo ? out.video : out.audio;
      for (const AnalyzedTrack& track : ladder) {
        if (track.segment_sizes.size() != ranged.size()) continue;
        bool match = true;
        for (std::size_t i = 0; i < ranged.size(); ++i) {
          if (track.segment_sizes[i] != ranged[i].range.length()) {
            match = false;
            break;
          }
        }
        if (match) {
          url_level[url] = track.level;
          break;
        }
      }
    }
  }
  for (auto& [url, ranged] : out.resolver.by_range) {
    auto it = url_level.find(url);
    if (it == url_level.end()) continue;
    for (auto& seg : ranged) seg.key.level = it->second;
  }
  // Template representations: find each track's final level by declared
  // bitrate, then register its expanded URLs.
  for (const TemplateTrack& t : template_tracks) {
    const auto& ladder =
        t.type == media::ContentType::kVideo ? out.video : out.audio;
    int level = -1;
    for (const AnalyzedTrack& track : ladder) {
      if (track.declared_bitrate == t.declared) level = track.level;
    }
    if (level < 0) continue;
    for (int index = 0;
         index < static_cast<int>(t.rep.template_durations.size()); ++index) {
      out.resolver.by_url[manifest::uri_resolve(
          t.mpd_url, t.rep.template_url(index))] =
          SegmentRef{t.type, level, index};
    }
  }
  return out;
}

// --- SmoothStreaming ----------------------------------------------------

LadderBuild build_smooth(const http::TransferRecord& manifest_record) {
  LadderBuild out;
  manifest::SmoothManifest manifest =
      manifest::SmoothManifest::parse(manifest_record.body_copy);
  for (const manifest::SmoothStreamIndex& stream : manifest.stream_indexes) {
    std::vector<manifest::SmoothQualityLevel> levels = stream.quality_levels;
    std::sort(levels.begin(), levels.end(),
              [](const manifest::SmoothQualityLevel& a,
                 const manifest::SmoothQualityLevel& b) {
                return a.bitrate < b.bitrate;
              });
    for (int level = 0; level < static_cast<int>(levels.size()); ++level) {
      const manifest::SmoothQualityLevel& q =
          levels[static_cast<std::size_t>(level)];
      AnalyzedTrack track;
      track.type = stream.type;
      track.level = level;
      track.declared_bitrate = q.bitrate;
      track.resolution = q.resolution;
      track.segment_durations = stream.chunk_durations;

      Seconds start_seconds = 0;
      for (int index = 0;
           index < static_cast<int>(stream.chunk_durations.size()); ++index) {
        const auto ticks = static_cast<std::uint64_t>(
            std::llround(start_seconds *
                         static_cast<double>(manifest::kSmoothTimescale)));
        const std::string url = manifest::uri_resolve(
            manifest_record.url, stream.fragment_url(q.bitrate, ticks));
        out.resolver.by_url[url] = SegmentRef{stream.type, level, index};
        start_seconds +=
            stream.chunk_durations[static_cast<std::size_t>(index)];
      }
      auto& ladder = stream.type == media::ContentType::kVideo ? out.video
                                                               : out.audio;
      ladder.push_back(std::move(track));
    }
  }
  return out;
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

  LadderBuild build;
  switch (out.protocol) {
    case manifest::Protocol::kHls:
      build = build_hls(records, *manifest_record);
      break;
    case manifest::Protocol::kDash:
      build = build_dash(records, *manifest_record, encrypted);
      break;
    case manifest::Protocol::kSmooth:
      build = build_smooth(*manifest_record);
      break;
  }
  out.video_tracks = std::move(build.video);
  out.audio_tracks = std::move(build.audio);

  // Walk every record and resolve it to a segment. Sub-range requests of the
  // same segment (split downloads) are merged back into one download.
  std::map<std::tuple<int, int, int>, std::size_t> partial_groups;
  for (const http::TransferRecord& r : records) {
    if (r.method != http::Method::kGet) continue;
    if (r.status < 200 || r.status >= 300) continue;  // rejected / errors
    bool full = true;
    std::optional<SegmentRef> key = build.resolver.resolve(r, &full);
    if (!key) continue;
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
  std::optional<LadderBuild> build;

  std::optional<SegmentRef> try_resolve(
      const std::string& url,
      const std::optional<manifest::ByteRange>& range) const {
    if (!build) return std::nullopt;
    http::TransferRecord fake;
    fake.url = url;
    fake.range = range;
    bool full = true;
    return build->resolver.resolve(fake, &full);
  }

  void rebuild() {
    built_from_records = log.records().size();
    build.reset();
    manifest::Protocol protocol;
    bool encrypted = false;
    const http::TransferRecord* manifest_record =
        find_manifest(log.records(), &protocol, &encrypted);
    if (manifest_record == nullptr) return;
    try {
      switch (protocol) {
        case manifest::Protocol::kHls:
          build = build_hls(log.records(), *manifest_record);
          break;
        case manifest::Protocol::kDash:
          build = build_dash(log.records(), *manifest_record, encrypted);
          break;
        case manifest::Protocol::kSmooth:
          build = build_smooth(*manifest_record);
          break;
      }
    } catch (const ParseError&) {
      // Manifests still arriving; retry on the next classify.
      build.reset();
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
