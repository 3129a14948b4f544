#include "player/media_source.h"

#include <cmath>

#include "common/error.h"
#include "common/strings.h"
#include "http/origin_server.h"
#include "manifest/dash_mpd.h"
#include "manifest/hls.h"
#include "manifest/smooth.h"
#include "manifest/uri.h"
#include "media/sidx.h"

namespace vodx::player {

MediaSource::MediaSource(http::HttpClient& client, Options options)
    : client_(client), options_(options) {}

void MediaSource::resolve(const std::string& manifest_url, ReadyFn on_ready,
                          ErrorFn on_error) {
  on_ready_ = std::move(on_ready);
  on_error_ = std::move(on_error);
  http::Request request{http::Method::kGet, manifest_url, std::nullopt};
  switch (options_.protocol) {
    case manifest::Protocol::kHls:
      enqueue(request, [this, manifest_url](const http::Response& r) {
        handle_hls_master(manifest_url, r);
      });
      break;
    case manifest::Protocol::kDash:
      enqueue(request, [this, manifest_url](const http::Response& r) {
        handle_dash_mpd(manifest_url, r);
      });
      break;
    case manifest::Protocol::kSmooth:
      enqueue(request, [this, manifest_url](const http::Response& r) {
        handle_smooth(manifest_url, r);
      });
      break;
  }
  pump();
}

void MediaSource::enqueue(http::Request request, Handler handler,
                          bool droppable) {
  PendingFetch entry;
  entry.request = std::move(request);
  entry.handler = std::move(handler);
  entry.droppable = droppable;
  entry.attempts_left = options_.retries;
  queue_.push_back(std::move(entry));
}

void MediaSource::pump() {
  if (failed_ || in_flight_) return;
  if (queue_.empty()) {
    finish();
    return;
  }
  PendingFetch entry = std::move(queue_.front());
  queue_.pop_front();
  issue(std::move(entry));
}

void MediaSource::issue(PendingFetch entry) {
  in_flight_ = true;
  const http::Request request = entry.request;
  const int id = client_.fetch(
      request, [this, entry = std::move(entry)](const http::Response& r) mutable {
        in_flight_ = false;
        if (!r.ok()) {
          if (entry.attempts_left > 0) {
            --entry.attempts_left;
            issue(std::move(entry));  // each re-issue still costs >= 1 RTT
            return;
          }
          if (entry.droppable && options_.tolerate_variant_loss) {
            // Stale-manifest fallback: carry on without this track; the
            // session only fails later if no video track survived.
            pump();
            return;
          }
          fail(format("manifest fetch failed with status %d", r.status));
          return;
        }
        try {
          entry.handler(r);
        } catch (const Error& e) {
          fail(e.what());
          return;
        }
        pump();
      });
  if (id < 0) fail("no connection available for manifest fetch");
}

void MediaSource::fail(const std::string& reason) {
  failed_ = true;
  queue_.clear();
  if (on_error_) on_error_(reason);
}

void MediaSource::finish() {
  presentation_.sort_tracks();
  if (on_ready_) on_ready_(std::move(presentation_));
}

void MediaSource::handle_hls_master(const std::string& url,
                                    const http::Response& resp) {
  manifest::HlsMasterPlaylist master =
      manifest::HlsMasterPlaylist::parse(resp.body);
  if (master.variants.empty()) throw ParseError("master playlist is empty");
  for (const manifest::HlsVariant& variant : master.variants) {
    const std::string playlist_url = manifest::uri_resolve(url, variant.uri);
    enqueue(
        http::Request{http::Method::kGet, playlist_url, std::nullopt},
        [this, variant, playlist_url](const http::Response& r) {
          manifest::HlsMediaPlaylist playlist =
              manifest::HlsMediaPlaylist::parse(r.body);
          manifest::ClientTrack track;
          track.id = variant.uri;
          track.type = media::ContentType::kVideo;
          track.declared_bitrate = variant.bandwidth;
          track.average_bandwidth = variant.average_bandwidth.value_or(0);
          track.resolution = variant.resolution;
          track.segments.reserve(playlist.segments.size());
          int index = 0;
          for (const manifest::HlsMediaSegment& seg : playlist.segments) {
            manifest::ClientSegment cs;
            cs.index = index++;
            cs.duration = seg.duration;
            cs.ref.url = manifest::uri_resolve(playlist_url, seg.uri);
            cs.ref.range = seg.byterange;
            if (seg.byterange) cs.size = seg.byterange->length();
            track.segments.push_back(std::move(cs));
          }
          track.sizes_known =
              !track.segments.empty() && track.segments.front().size > 0;
          presentation_.video.push_back(std::move(track));
        },
        /*droppable=*/true);
  }
}

void MediaSource::handle_dash_mpd(const std::string& url,
                                  const http::Response& resp) {
  std::string body = resp.body;
  if (http::is_scrambled(body)) {
    if (!options_.can_descramble) {
      throw ParseError("manifest is encrypted and no key is available");
    }
    body = http::unscramble_manifest(body);
  }
  manifest::DashMpd mpd = manifest::DashMpd::parse(body);
  for (const manifest::DashAdaptationSet& set : mpd.adaptation_sets) {
    for (const manifest::DashRepresentation& rep : set.representations) {
      const std::string media_url = manifest::uri_resolve(url, rep.base_url);
      manifest::ClientTrack track;
      track.id = rep.id;
      track.type = set.content_type;
      track.declared_bitrate = rep.bandwidth;
      track.resolution = rep.resolution;
      if (!rep.media_template.empty()) {
        // SegmentTemplate: per-segment files, no sizes on the wire.
        track.segments.reserve(rep.template_durations.size());
        int index = 0;
        for (Seconds d : rep.template_durations) {
          manifest::ClientSegment cs;
          cs.index = index;
          cs.duration = d;
          cs.ref.url = manifest::uri_resolve(url, rep.template_url(index));
          track.segments.push_back(std::move(cs));
          ++index;
        }
        track.sizes_known = false;
        auto& ladder = set.content_type == media::ContentType::kVideo
                           ? presentation_.video
                           : presentation_.audio;
        ladder.push_back(std::move(track));
      } else if (!rep.segments.empty()) {
        // SegmentList: everything is in the MPD.
        track.segments.reserve(rep.segments.size());
        int index = 0;
        for (const manifest::DashSegmentRef& ref : rep.segments) {
          manifest::ClientSegment cs;
          cs.index = index++;
          cs.duration = ref.duration;
          cs.ref.url = media_url;
          cs.ref.range = ref.media_range;
          cs.size = ref.media_range.length();
          track.segments.push_back(std::move(cs));
        }
        track.sizes_known = true;
        auto& ladder = set.content_type == media::ContentType::kVideo
                           ? presentation_.video
                           : presentation_.audio;
        ladder.push_back(std::move(track));
      } else if (rep.index_range) {
        // SegmentBase: the sidx must be fetched to learn the ranges.
        const manifest::ByteRange index_range = *rep.index_range;
        const bool is_video = set.content_type == media::ContentType::kVideo;
        enqueue(
            http::Request{http::Method::kGet, media_url, index_range},
            [this, track = std::move(track), media_url, index_range,
             is_video](const http::Response& r) mutable {
              media::SidxBox sidx = media::parse_sidx(r.body);
              Bytes offset = index_range.last + 1 +
                             static_cast<Bytes>(sidx.first_offset);
              track.segments.reserve(sidx.references.size());
              int index = 0;
              for (const media::SidxReference& ref : sidx.references) {
                manifest::ClientSegment cs;
                cs.index = index++;
                cs.duration = static_cast<double>(ref.subsegment_duration) /
                              sidx.timescale;
                cs.ref.url = media_url;
                cs.ref.range = manifest::ByteRange{
                    offset, offset + static_cast<Bytes>(ref.referenced_size) - 1};
                cs.size = static_cast<Bytes>(ref.referenced_size);
                offset += static_cast<Bytes>(ref.referenced_size);
                track.segments.push_back(std::move(cs));
              }
              track.sizes_known = true;
              auto& ladder =
                  is_video ? presentation_.video : presentation_.audio;
              ladder.push_back(std::move(track));
            },
            /*droppable=*/true);
      } else {
        throw ParseError("representation without segment information");
      }
    }
  }
}

void MediaSource::handle_smooth(const std::string& url,
                                const http::Response& resp) {
  manifest::SmoothManifest manifest = manifest::SmoothManifest::parse(resp.body);
  for (const manifest::SmoothStreamIndex& stream : manifest.stream_indexes) {
    for (const manifest::SmoothQualityLevel& quality : stream.quality_levels) {
      manifest::ClientTrack track;
      track.id = format("%s-%lld", media::to_string(stream.type),
                        static_cast<long long>(quality.bitrate));
      track.type = stream.type;
      track.declared_bitrate = quality.bitrate;
      track.resolution = quality.resolution;
      // Accumulate in seconds and round once per fragment — the same
      // arithmetic the origin uses to register fragment URLs.
      Seconds start_seconds = 0;
      track.segments.reserve(stream.chunk_durations.size());
      int index = 0;
      for (Seconds d : stream.chunk_durations) {
        manifest::ClientSegment cs;
        cs.index = index++;
        cs.duration = d;
        const auto start_ticks = static_cast<std::uint64_t>(
            std::llround(start_seconds *
                         static_cast<double>(manifest::kSmoothTimescale)));
        cs.ref.url = manifest::uri_resolve(
            url, stream.fragment_url(quality.bitrate, start_ticks));
        start_seconds += d;
        track.segments.push_back(std::move(cs));
      }
      track.sizes_known = false;
      auto& ladder = stream.type == media::ContentType::kVideo
                         ? presentation_.video
                         : presentation_.audio;
      ladder.push_back(std::move(track));
    }
  }
}

}  // namespace vodx::player
