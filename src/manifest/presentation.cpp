#include "manifest/presentation.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.h"
#include "common/strings.h"
#include "manifest/dash_mpd.h"
#include "manifest/hls.h"
#include "manifest/smooth.h"
#include "manifest/uri.h"
#include "media/sidx.h"

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

void Presentation::add(ClientTrack track) {
  auto& ladder = track.type == media::ContentType::kVideo ? video : audio;
  ladder.push_back(std::move(track));
}

void Presentation::sort_tracks() {
  auto by_bitrate = [](const ClientTrack& a, const ClientTrack& b) {
    return a.declared_bitrate < b.declared_bitrate;
  };
  std::sort(video.begin(), video.end(), by_bitrate);
  std::sort(audio.begin(), audio.end(), by_bitrate);
}

namespace {

/// Appends a segment with the next index; a byte-range segment's size is
/// its range's length.
void append_segment(ClientTrack& track, Seconds duration, std::string url,
                    std::optional<ByteRange> range = std::nullopt) {
  ClientSegment& segment = track.segments.emplace_back();
  segment.index = static_cast<int>(track.segments.size()) - 1;
  segment.duration = duration;
  segment.ref.url = std::move(url);
  segment.ref.range = range;
  if (range) segment.size = range->length();
}

std::vector<TrackDraft> resolve_hls(std::string_view url,
                                    std::string_view body) {
  HlsMasterPlaylist master = HlsMasterPlaylist::parse(body);
  if (master.variants.empty()) throw ParseError("master playlist is empty");
  std::vector<TrackDraft> drafts(master.variants.size());
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    HlsVariant& variant = master.variants[i];
    TrackDraft& draft = drafts[i];
    draft.pending = MediaRef{uri_resolve(url, variant.uri), std::nullopt};
    ClientTrack& track = draft.track;
    track.id = std::move(variant.uri);
    track.type = media::ContentType::kVideo;
    track.declared_bitrate = variant.bandwidth;
    track.average_bandwidth = variant.average_bandwidth.value_or(0);
    track.resolution = variant.resolution;
  }
  return drafts;
}

std::vector<TrackDraft> resolve_dash(std::string_view url,
                                     std::string_view body) {
  const DashMpd mpd = DashMpd::parse(body);
  std::vector<TrackDraft> drafts;
  for (const DashAdaptationSet& set : mpd.adaptation_sets) {
    for (const DashRepresentation& rep : set.representations) {
      TrackDraft& draft = drafts.emplace_back();
      ClientTrack& track = draft.track;
      track.id = rep.id;
      track.type = set.content_type;
      track.declared_bitrate = rep.bandwidth;
      track.resolution = rep.resolution;
      if (!rep.media_template.empty()) {
        // SegmentTemplate: per-segment files, no sizes on the wire.
        const std::vector<Seconds>& durations = rep.template_durations;
        track.segments.reserve(durations.size());
        for (std::size_t i = 0; i < durations.size(); ++i) {
          append_segment(
              track, durations[i],
              uri_resolve(url, rep.template_url(static_cast<int>(i))));
        }
      } else if (!rep.segments.empty()) {
        // SegmentList: everything is in the MPD.
        const std::string media_url = uri_resolve(url, rep.base_url);
        track.segments.reserve(rep.segments.size());
        for (const DashSegmentRef& ref : rep.segments) {
          append_segment(track, ref.duration, media_url, ref.media_range);
        }
        track.sizes_known = true;
      } else if (rep.index_range) {
        // SegmentBase: the sidx must be fetched to learn the ranges.
        draft.pending = MediaRef{uri_resolve(url, rep.base_url),
                                 rep.index_range};
      } else {
        throw ParseError("representation without segment information");
      }
    }
  }
  return drafts;
}

std::vector<TrackDraft> resolve_smooth(std::string_view url,
                                       std::string_view body) {
  const SmoothManifest manifest = SmoothManifest::parse(body);
  std::vector<TrackDraft> drafts;
  for (const SmoothStreamIndex& stream : manifest.stream_indexes) {
    for (const SmoothQualityLevel& quality : stream.quality_levels) {
      ClientTrack& track = drafts.emplace_back().track;
      track.id = format("%s-%lld", media::to_string(stream.type),
                        static_cast<long long>(quality.bitrate));
      track.type = stream.type;
      track.declared_bitrate = quality.bitrate;
      track.resolution = quality.resolution;
      // Accumulate in seconds and round once per fragment — the same
      // arithmetic the origin uses to register fragment URLs.
      Seconds start_seconds = 0;
      track.segments.reserve(stream.chunk_durations.size());
      for (Seconds d : stream.chunk_durations) {
        const auto start_ticks = static_cast<std::uint64_t>(std::llround(
            start_seconds * static_cast<double>(kSmoothTimescale)));
        append_segment(track, d,
                       uri_resolve(url, stream.fragment_url(quality.bitrate,
                                                            start_ticks)));
        start_seconds += d;
      }
    }
  }
  return drafts;
}

}  // namespace

std::vector<TrackDraft> resolve_manifest(Protocol protocol,
                                         std::string_view url,
                                         std::string_view body) {
  switch (protocol) {
    case Protocol::kHls: return resolve_hls(url, body);
    case Protocol::kDash: return resolve_dash(url, body);
    case Protocol::kSmooth: return resolve_smooth(url, body);
  }
  throw ParseError("unknown protocol");
}

ClientTrack complete_track(TrackDraft draft, std::string_view body) {
  VODX_ASSERT(draft.pending.has_value(), "track is already complete");
  ClientTrack track = std::move(draft.track);
  const MediaRef& source = *draft.pending;
  if (source.range) {
    // The sidx's references tile the file from just past the box.
    const media::SidxBox sidx = media::parse_sidx(body);
    Bytes offset = source.range->last + 1 +
                   static_cast<Bytes>(sidx.first_offset);
    track.segments.reserve(sidx.references.size());
    for (const media::SidxReference& ref : sidx.references) {
      const auto size = static_cast<Bytes>(ref.referenced_size);
      append_segment(track,
                     static_cast<double>(ref.subsegment_duration) /
                         sidx.timescale,
                     source.url, ByteRange{offset, offset + size - 1});
      offset += size;
    }
    track.sizes_known = true;
    return track;
  }
  const HlsMediaPlaylist playlist = HlsMediaPlaylist::parse(body);
  track.segments.reserve(playlist.segments.size());
  for (const HlsMediaSegment& seg : playlist.segments) {
    append_segment(track, seg.duration, uri_resolve(source.url, seg.uri),
                   seg.byterange);
  }
  track.sizes_known =
      !track.segments.empty() && track.segments.front().size > 0;
  return track;
}

}  // namespace vodx::manifest
