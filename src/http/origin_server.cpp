#include "http/origin_server.h"

#include <cmath>

#include "common/error.h"
#include "common/strings.h"
#include "manifest/hls.h"
#include "manifest/smooth.h"
#include "media/sidx.h"

namespace vodx::http {

namespace {

constexpr std::string_view kScrambleMagic = "VODXENC1";
constexpr std::string_view kScrambleKey = "app-private-key";

std::string xor_with_key(std::string_view data) {
  std::string out(data);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<char>(out[i] ^ kScrambleKey[i % kScrambleKey.size()]);
  }
  return out;
}

}  // namespace

std::string scramble_manifest(const std::string& plain) {
  return std::string(kScrambleMagic) + xor_with_key(plain);
}

std::string unscramble_manifest(const std::string& blob) {
  if (!is_scrambled(blob)) throw ParseError("not a scrambled manifest");
  return xor_with_key(std::string_view(blob).substr(kScrambleMagic.size()));
}

bool is_scrambled(std::string_view blob) {
  return blob.substr(0, kScrambleMagic.size()) == kScrambleMagic;
}

OriginServer::OriginServer(media::VideoAsset asset, OriginConfig config)
    : asset_(std::move(asset)), config_(config) {
  switch (config_.protocol) {
    case manifest::Protocol::kHls: build_hls(); break;
    case manifest::Protocol::kDash: build_dash(); break;
    case manifest::Protocol::kSmooth: build_smooth(); break;
  }
  resolve_own();
}

void OriginServer::resolve_own() {
  // Only manifests and playlists are fetched here, and those are in
  // resources_. Segments are served through the resolution built below, so
  // it must exist: every asset's manifests resolve, and a ParseError here
  // (a renderer bug) propagates out of the constructor.
  const std::string url = manifest_url();
  Response root = handle({Method::kGet, url, std::nullopt});
  VODX_ASSERT(root.ok(), "the title serves its root manifest");
  if (is_scrambled(root.body)) root.body = unscramble_manifest(root.body);
  Response resource;
  const manifest::Resolution::Fetch fetch =
      [&](const manifest::MediaRef& ref) -> const std::string* {
    resource = handle({Method::kGet, ref.url, ref.range});
    return resource.ok() ? &resource.body : nullptr;
  };
  resolution_ = std::make_shared<const manifest::Resolution>(
      config_.protocol, url, std::move(root.body), fetch);
  // Both ladders ascend by declared bitrate, ties in manifest order, so a
  // segment's level is its asset track's position.
  const manifest::Presentation& p = resolution_->presentation();
  VODX_ASSERT(p.video.size() == asset_.video_tracks().size() &&
                  p.audio.size() == asset_.audio_tracks().size(),
              "the title's ladders match its asset");
}

std::string OriginServer::manifest_url() const {
  switch (config_.protocol) {
    case manifest::Protocol::kHls: return "/master.m3u8";
    case manifest::Protocol::kDash: return "/manifest.mpd";
    case manifest::Protocol::kSmooth: return "/manifest.ism";
  }
  return "/";
}

void OriginServer::build_hls() {
  VODX_ASSERT(!asset_.separate_audio(),
              "the studied HLS services mux audio into video segments");
  manifest::HlsMasterPlaylist master;
  for (int level = 0; level < asset_.video_track_count(); ++level) {
    const media::Track& track = asset_.video_track(level);
    manifest::HlsVariant variant;
    variant.bandwidth = track.declared_bitrate();
    if (config_.hls_average_bandwidth) {
      variant.average_bandwidth = track.average_actual_bitrate();
    }
    variant.resolution = track.resolution();
    variant.uri = format("video/%d/playlist.m3u8", level);
    master.variants.push_back(variant);

    manifest::HlsMediaPlaylist media_playlist;
    media_playlist.target_duration = 0;
    media_playlist.segments.reserve(track.segments().size());
    for (const media::Segment& s : track.segments()) {
      media_playlist.target_duration =
          std::max(media_playlist.target_duration, s.duration);
      manifest::HlsMediaSegment& seg = media_playlist.segments.emplace_back();
      seg.duration = s.duration;
      if (config_.hls_byterange) {
        // HLS v4: sub-ranges of one media file per track.
        seg.uri = "media.ts";
        seg.byterange = manifest::ByteRange{s.offset, s.offset + s.size - 1};
      } else {
        seg.uri = "seg";
        append_int(seg.uri, s.index);
        seg.uri += ".ts";
      }
    }
    if (config_.hls_byterange) {
      MediaFile file;
      file.total_size = track.total_size();
      add(format("/video/%d/media.ts", level), std::move(file));
    }
    add(format("/video/%d/playlist.m3u8", level),
        make_ok("application/vnd.apple.mpegurl", media_playlist.serialize()));
  }
  add("/master.m3u8",
      make_ok("application/vnd.apple.mpegurl", master.serialize()));
}

void OriginServer::build_dash() {
  manifest::DashMpd mpd;
  mpd.media_presentation_duration = asset_.duration();

  auto build_set = [&](const std::vector<media::Track>& tracks,
                       media::ContentType type, const char* prefix) {
    if (tracks.empty()) return;
    manifest::DashAdaptationSet set;
    set.content_type = type;
    for (std::size_t level = 0; level < tracks.size(); ++level) {
      const media::Track& track = tracks[level];
      manifest::DashRepresentation rep;
      rep.id = track.id();
      rep.bandwidth = track.declared_bitrate();
      rep.resolution = track.resolution();
      rep.base_url = format("%s/%zu/media.mp4", prefix, level);
      const std::string file_url = "/" + rep.base_url;

      if (config_.dash_index == manifest::DashIndexMode::kSegmentTemplate) {
        rep.base_url.clear();
        rep.media_template = format("%s/%zu/seg$Number$.m4s", prefix, level);
        rep.start_number = 1;
        rep.template_durations.reserve(track.segments().size());
        for (const media::Segment& seg : track.segments()) {
          rep.template_durations.push_back(seg.duration);
        }
        set.representations.push_back(std::move(rep));
        continue;
      }

      MediaFile file;
      if (config_.dash_index == manifest::DashIndexMode::kSidx) {
        file.index_blob = media::serialize_sidx(media::sidx_for_track(track));
        rep.index_range = manifest::ByteRange{
            0, static_cast<Bytes>(file.index_blob.size()) - 1};
      } else {
        rep.segments.reserve(track.segments().size());
        for (const media::Segment& s : track.segments()) {
          manifest::DashSegmentRef ref;
          ref.duration = s.duration;
          ref.media_range = manifest::ByteRange{s.offset, s.offset + s.size - 1};
          rep.segments.push_back(ref);
        }
      }
      file.total_size = static_cast<Bytes>(file.index_blob.size()) +
                        track.total_size();
      add(file_url, std::move(file));
      set.representations.push_back(std::move(rep));
    }
    mpd.adaptation_sets.push_back(std::move(set));
  };

  build_set(asset_.video_tracks(), media::ContentType::kVideo, "video");
  build_set(asset_.audio_tracks(), media::ContentType::kAudio, "audio");

  std::string body = mpd.serialize();
  if (config_.encrypt_manifest) {
    add("/manifest.mpd",
        make_ok("application/octet-stream", scramble_manifest(body)));
  } else {
    add("/manifest.mpd", make_ok("application/dash+xml", std::move(body)));
  }
}

void OriginServer::build_smooth() {
  manifest::SmoothManifest manifest;
  manifest.duration = asset_.duration();

  auto build_stream = [&](const std::vector<media::Track>& tracks,
                          media::ContentType type, const char* tag) {
    if (tracks.empty()) return;
    manifest::SmoothStreamIndex stream;
    stream.type = type;
    stream.url_template =
        format("QualityLevels({bitrate})/Fragments(%s={start time})", tag);
    for (const media::Track& track : tracks) {
      manifest::SmoothQualityLevel q;
      q.bitrate = track.declared_bitrate();
      q.resolution = track.resolution();
      stream.quality_levels.push_back(q);
    }
    // Chunk timeline comes from the first track; SmoothStreaming requires
    // aligned fragments across quality levels.
    stream.chunk_durations.reserve(tracks.front().segments().size());
    for (const media::Segment& s : tracks.front().segments()) {
      stream.chunk_durations.push_back(s.duration);
    }
    manifest.stream_indexes.push_back(std::move(stream));
  };

  build_stream(asset_.video_tracks(), media::ContentType::kVideo, "video");
  build_stream(asset_.audio_tracks(), media::ContentType::kAudio, "audio");

  add("/manifest.ism", make_ok("text/xml", manifest.serialize()));
}

void OriginServer::add(std::string url, Response text) {
  texts_.push_back(std::move(text));
  resources_.insert_or_assign(
      std::move(url), Resource{Resource::Kind::kText, texts_.size() - 1});
}

void OriginServer::add(std::string url, MediaFile file) {
  files_.push_back(std::move(file));
  resources_.insert_or_assign(
      std::move(url), Resource{Resource::Kind::kFile, files_.size() - 1});
}

Response OriginServer::serve_media_file(const MediaFile& file,
                                        const Request& request) const {
  manifest::ByteRange range{0, file.total_size - 1};
  if (request.range) {
    range = *request.range;
    if (range.first < 0 || range.last >= file.total_size) {
      return make_error(416, "range not satisfiable");
    }
  }
  Response response;
  response.status = request.range ? 206 : 200;
  response.content_type = "video/mp4";
  response.payload_size = range.length();
  // Bytes overlapping the index blob are real (the analyzer parses them).
  const Bytes blob_size = static_cast<Bytes>(file.index_blob.size());
  if (range.first < blob_size) {
    const Bytes end = std::min(range.last, blob_size - 1);
    response.body = file.index_blob.substr(
        static_cast<std::size_t>(range.first),
        static_cast<std::size_t>(end - range.first + 1));
  }
  return response;
}

Response OriginServer::handle(const Request& request) const {
  auto finish = [&](Response response) {
    if (request.method == Method::kHead && response.ok()) {
      response.head_content_length = request.range
                                         ? request.range->length()
                                         : response.payload_size;
      response.payload_size = 0;
      response.body.clear();
    }
    return response;
  };

  // Unranged requests are mostly for whole segments and ranged ones for
  // range-served files, so each finds its resource with one hash probe.
  if (!request.range) {
    if (const Bytes size = segment_size(request.url)) {
      return finish(make_media("video/mp2t", size));
    }
  }
  const auto it = resources_.find(request.url);
  if (it != resources_.end()) {
    const Resource& resource = it->second;
    if (resource.kind == Resource::Kind::kText) {
      return finish(texts_[resource.index]);
    }
    return finish(serve_media_file(files_[resource.index], request));
  }
  if (request.range) {
    if (const Bytes size = segment_size(request.url)) {
      if (request.range->last >= size) {
        return make_error(416, "range not satisfiable");
      }
      Response r = make_media("video/mp2t", request.range->length());
      r.status = 206;
      return finish(r);
    }
  }
  return make_error(404, "unknown resource: " + request.url);
}

Bytes OriginServer::segment_size(std::string_view url) const {
  if (!resolution_) return 0;  // resolve_own() fetching the manifests
  const std::optional<manifest::SegmentLocation> at =
      resolution_->locate(url, std::nullopt);
  if (!at) return 0;
  const media::Track& track = at->type == media::ContentType::kVideo
                                  ? asset_.video_track(at->level)
                                  : asset_.audio_track(at->level);
  // A Smooth timeline is the first track's: a shorter track has no chunk
  // past its own end.
  if (at->index >= track.segment_count()) return 0;
  return track.segment(at->index).size;
}

}  // namespace vodx::http
