#include "manifest/presentation.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "common/error.h"
#include "common/strings.h"
#include "manifest/dash_mpd.h"
#include "manifest/hls.h"
#include "manifest/smooth.h"
#include "manifest/uri.h"
#include "media/sidx.h"
#include "obs/profiler.h"

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

ClientSegment& ClientTrack::add_segment(Seconds duration) {
  // The same sum, in the same order, as adding up the durations before it.
  const Seconds start =
      segments.empty() ? 0 : segments.back().start + segments.back().duration;
  ClientSegment& segment = segments.emplace_back();
  segment.index = static_cast<int>(segments.size()) - 1;
  segment.duration = duration;
  segment.start = start;
  return segment;
}

Seconds ClientTrack::segment_start(int index) const {
  VODX_ASSERT(index >= 0 && index <= static_cast<int>(segments.size()),
              "segment index out of range");
  if (index == static_cast<int>(segments.size())) return duration();
  return segments[static_cast<std::size_t>(index)].start;
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
  std::stable_sort(video.begin(), video.end(), by_bitrate);
  std::stable_sort(audio.begin(), audio.end(), by_bitrate);
}

namespace {

/// Appends a segment; a byte-range segment's size is its range's length.
/// The first byte-range segment's URL becomes the track's media_url, which
/// later ones at that URL (or with none) leave their own `url` empty for.
void append_segment(ClientTrack& track, Seconds duration, std::string url,
                    std::optional<ByteRange> range = std::nullopt) {
  ClientSegment& segment = track.add_segment(duration);
  if (range && track.media_url.empty()) track.media_url = url;
  if (!range || url != track.media_url) segment.url = std::move(url);
  segment.range = range;
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
        std::string reference;
        for (std::size_t i = 0; i < durations.size(); ++i) {
          rep.template_url(static_cast<int>(i), reference);
          append_segment(track, durations[i], uri_resolve(url, reference));
        }
      } else if (!rep.segments.empty()) {
        // SegmentList: everything is in the MPD.
        track.media_url = uri_resolve(url, rep.base_url);
        track.segments.reserve(rep.segments.size());
        for (const DashSegmentRef& ref : rep.segments) {
          append_segment(track, ref.duration, {}, ref.media_range);
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
      std::string reference;
      for (Seconds d : stream.chunk_durations) {
        const auto start_ticks = static_cast<std::uint64_t>(std::llround(
            start_seconds * static_cast<double>(kSmoothTimescale)));
        stream.fragment_url(quality.bitrate, start_ticks, reference);
        append_segment(track, d, uri_resolve(url, reference));
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
  // Counts the root manifests actually parsed: about one per title when
  // sessions find their title's Resolution.
  VODX_PROFILE_ZONE("manifest.resolve");
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
    track.media_url = source.url;
    track.segments.reserve(sidx.references.size());
    for (const media::SidxReference& ref : sidx.references) {
      const auto size = static_cast<Bytes>(ref.referenced_size);
      append_segment(track,
                     static_cast<double>(ref.subsegment_duration) /
                         sidx.timescale,
                     {}, ByteRange{offset, offset + size - 1});
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

Resolution::Resolution(Protocol protocol, std::string url, std::string body,
                       const Fetch& fetch)
    : protocol_(protocol), url_(std::move(url)), body_(std::move(body)) {
  std::vector<TrackDraft> drafts = resolve_manifest(protocol_, url_, body_);
  std::vector<std::optional<ClientTrack>> tracks(drafts.size());
  sources_.resize(drafts.size());
  for (std::size_t i = 0; i < drafts.size(); ++i) {
    TrackDraft& draft = drafts[i];
    Source& source = sources_[i];
    if (!draft.pending) {
      tracks[i] = std::move(draft.track);
      continue;
    }
    source.draft = draft;
    if (const std::string* resource = fetch(*draft.pending)) {
      source.body = *resource;
      tracks[i] = complete_track(std::move(draft), *resource);
    } else if (protocol_ == Protocol::kHls) {
      tracks[i] = std::move(draft.track);
    }
  }

  // Added in ascending bitrate, ties in manifest order: what adding in
  // manifest order and sort_tracks() give, with each source's place known.
  std::vector<std::size_t> order;
  std::array<std::size_t, 2> per_type{};
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    if (!tracks[i]) continue;
    order.push_back(i);
    ++per_type[tracks[i]->type == media::ContentType::kVideo ? 0 : 1];
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return tracks[a]->declared_bitrate <
                            tracks[b]->declared_bitrate;
                   });
  auto presentation = std::make_shared<Presentation>();
  // Reserved in full, so the addresses taken below stay valid.
  presentation->video.reserve(per_type[0]);
  presentation->audio.reserve(per_type[1]);
  for (std::size_t i : order) {
    const bool video = tracks[i]->type == media::ContentType::kVideo;
    presentation->add(std::move(*tracks[i]));
    sources_[i].track = video ? &presentation->video.back()
                              : &presentation->audio.back();
  }
  presentation_ = std::move(presentation);
  index();
}

Resolution::Resolution(Presentation presentation) {
  presentation.sort_tracks();
  presentation_ = std::make_shared<const Presentation>(std::move(presentation));
  index();
}

void Resolution::index() {
  // Each whole segment, and each run of ranged segments at one URL string
  // (a byte-range track's media_url is one), bounds the distinct URLs, so
  // the table stays at most half full.
  std::size_t urls = 0;
  for (const std::vector<ClientTrack>* ladder :
       {&presentation_->video, &presentation_->audio}) {
    for (const ClientTrack& track : *ladder) {
      const std::string* previous = nullptr;
      for (const ClientSegment& seg : track.segments) {
        const std::string* url = &track.url_of(seg);
        if (!seg.range || url != previous) ++urls;
        previous = url;
      }
    }
  }
  slots_.reserve(urls);
  std::size_t table_size = 1;
  while (table_size < 2 * urls) table_size *= 2;
  table_.assign(table_size, 0);
  // Whole-resource segments take the last location a URL gets; each ranged
  // URL collects its segments into one slice of ranged_. A track's ranged
  // segments share one URL, so the previous segment's list is usually the
  // one to extend.
  std::unordered_map<std::string_view, std::vector<Ranged>> ranges;
  std::string_view last_url;
  std::vector<Ranged>* last = nullptr;
  for (const std::vector<ClientTrack>* ladder :
       {&presentation_->video, &presentation_->audio}) {
    for (std::size_t level = 0; level < ladder->size(); ++level) {
      const ClientTrack& track = (*ladder)[level];
      for (const ClientSegment& seg : track.segments) {
        const SegmentLocation at{track.type, static_cast<int>(level),
                                 seg.index, true};
        const std::string& url = track.url_of(seg);
        if (!seg.range) {
          slot_for(url).whole = at;
          continue;
        }
        if (last == nullptr || url != last_url) {
          last_url = url;
          last = &ranges[last_url];
        }
        last->push_back({*seg.range, at});
      }
    }
  }
  for (auto& [url, list] : ranges) {
    std::stable_sort(list.begin(), list.end(),
                     [](const Ranged& a, const Ranged& b) {
                       return a.range.first < b.range.first;
                     });
    UrlSlot& slot = slot_for(url);
    slot.first = ranged_.size();
    slot.count = list.size();
    ranged_.insert(ranged_.end(), list.begin(), list.end());
  }
}

std::size_t Resolution::probe(std::string_view url) const {
  const std::size_t mask = table_.size() - 1;
  std::size_t i = std::hash<std::string_view>{}(url) & mask;
  while (table_[i] != 0 && slots_[table_[i] - 1].url != url) i = (i + 1) & mask;
  return i;
}

Resolution::UrlSlot& Resolution::slot_for(std::string_view url) {
  std::uint32_t& entry = table_[probe(url)];
  if (entry == 0) {
    slots_.push_back({url, std::nullopt, 0, 0});
    entry = static_cast<std::uint32_t>(slots_.size());
  }
  return slots_[entry - 1];
}

const std::vector<Resolution::Source>* Resolution::sources_for(
    Protocol protocol, std::string_view url, std::string_view body) const {
  if (protocol != protocol_ || url != url_ || body != body_) return nullptr;
  return &sources_;
}

bool Resolution::same_resources(const Fetch& fetch) const {
  for (const Source& source : sources_) {
    if (!source.draft) continue;
    const std::string* resource = fetch(*source.draft->pending);
    if (resource == nullptr ? source.body.has_value()
                            : source.body != *resource) {
      return false;
    }
  }
  return true;
}

std::optional<SegmentLocation> Resolution::locate(
    std::string_view url, const std::optional<ByteRange>& range) const {
  const std::uint32_t entry = table_[probe(url)];
  if (entry == 0) return std::nullopt;
  const UrlSlot& slot = slots_[entry - 1];
  if (slot.whole) return slot.whole;
  if (!range || slot.count == 0) return std::nullopt;
  const auto begin = ranged_.begin() + static_cast<std::ptrdiff_t>(slot.first);
  const auto end = begin + static_cast<std::ptrdiff_t>(slot.count);
  // The last segment starting at or before the request's first byte.
  auto after = std::upper_bound(begin, end, range->first,
                                [](Bytes first, const Ranged& r) {
                                  return first < r.range.first;
                                });
  if (after == begin) return std::nullopt;
  const Ranged& seg = *(after - 1);
  if (range->last > seg.range.last) return std::nullopt;
  SegmentLocation at = seg.at;
  at.whole = *range == seg.range;
  return at;
}

}  // namespace vodx::manifest
