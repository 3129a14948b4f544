// Simulated VOD origin.
//
// Hosts one asset under one HAS protocol, generating real manifest bytes:
//
//   HLS    /master.m3u8, /video/<k>/playlist.m3u8, /video/<k>/seg<i>.ts
//   DASH   /manifest.mpd, /video/<k>/media.mp4 (+ /audio/<l>/media.mp4),
//          served by byte range; in kSidx mode the media file begins with a
//          genuine sidx box and the MPD only carries SegmentBase@indexRange
//   SS     /manifest.ism, /QualityLevels(<bitrate>)/Fragments(<type>=<ticks>)
//
// Supports GET (with ranges on DASH media files) and HEAD — the paper's
// methodology HEADs HLS/SS segments to learn their sizes (§3.1).
//
// The D3-style application-layer manifest encryption is modelled by an XOR
// scramble: worthless as cryptography, but it gives the man-in-the-middle
// exactly the paper's situation — an opaque manifest it cannot read while the
// client (which has the app's key) can.
//
// An origin is one title and immutable once built; it also resolves its own
// manifests once (resolution()), which the player and the traffic analyzer
// of every session on the title reuse where their bytes equal the title's.
// That resolution is also the title's one URL index for segments: a
// whole-resource segment (HLS seg<i>.ts, DASH SegmentTemplate seg<n>.m4s,
// SS fragments) is served by locating its URL there and taking the asset's
// size for it, so no URL table repeats the manifests' templates. The origin
// itself indexes only manifests, playlists and range-served media files.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/message.h"
#include "manifest/dash_mpd.h"
#include "manifest/presentation.h"
#include "media/video_asset.h"

namespace vodx::http {

struct OriginConfig {
  manifest::Protocol protocol = manifest::Protocol::kHls;
  manifest::DashIndexMode dash_index = manifest::DashIndexMode::kSidx;
  /// Application-layer encrypt the manifest (the D3 behaviour, §2.3 fn 4).
  bool encrypt_manifest = false;
  /// Emit AVERAGE-BANDWIDTH in HLS master playlists (newer HLS, §4.2).
  bool hls_average_bandwidth = false;
  /// HLS v4 byte-range mode: each track is one media file and segments are
  /// EXT-X-BYTERANGE sub-ranges, which exposes exact sizes to the client —
  /// the direction §4.2 says HLS is moving in. (None of the 12 studied
  /// services used it, so it defaults off.)
  bool hls_byterange = false;
};

/// XOR-scramble stand-in for app-layer manifest encryption.
std::string scramble_manifest(const std::string& plain);
std::string unscramble_manifest(const std::string& blob);
bool is_scrambled(std::string_view blob);

class OriginServer {
 public:
  OriginServer(media::VideoAsset asset, OriginConfig config);

  Response handle(const Request& request) const;

  /// URL of the entry-point manifest.
  std::string manifest_url() const;

  const media::VideoAsset& asset() const { return asset_; }
  const OriginConfig& config() const { return config_; }

  /// The title's own manifests resolved as a client receives them (the
  /// manifest descrambled), built with the title; never nullptr.
  const manifest::Resolution* resolution() const { return resolution_.get(); }

 private:
  struct MediaFile {
    Bytes total_size = 0;
    std::string index_blob;  ///< sidx bytes at the file head (may be empty)
  };

  /// What a URL other than a segment's serves: a manifest or playlist
  /// (`index` into texts_) or a range-served media file (into files_).
  struct Resource {
    enum class Kind { kText, kFile } kind = Kind::kText;
    std::size_t index = 0;
  };

  void build_hls();
  void build_dash();
  void build_smooth();
  /// Builds resolution_ from what handle() serves.
  void resolve_own();
  void add(std::string url, Response text);
  void add(std::string url, MediaFile file);
  Response serve_media_file(const MediaFile& file, const Request& request) const;
  /// The size of the whole-resource segment at `url`, found through the
  /// title's resolution; 0 when `url` names none.
  Bytes segment_size(std::string_view url) const;

  media::VideoAsset asset_;
  OriginConfig config_;
  std::vector<Response> texts_;   ///< manifests, playlists
  std::vector<MediaFile> files_;  ///< range-served files
  /// The manifest, playlist and range-served file URLs. Never iterated.
  std::unordered_map<std::string, Resource> resources_;
  std::shared_ptr<const manifest::Resolution> resolution_;
};

}  // namespace vodx::http
