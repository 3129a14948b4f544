// Client-side manifest fetching.
//
// Drives the HTTP fetches a real player performs before it can stream:
//
//   HLS    master playlist, then every variant's media playlist
//   DASH   the MPD, then (SegmentBase mode) each representation's sidx —
//          mandatory, since byte ranges are unknown without it
//   SS     the single manifest
//
// What the bytes mean is manifest::resolve_manifest / complete_track's
// business; this class is the fetch plumbing around them: one request at a
// time, retries, droppable per-track fetches and descrambling. For the
// D3-style service the MPD arrives application-layer encrypted; the client
// holds the app key while the man-in-the-middle does not.
//
// The title behind the proxy has resolved its own manifests once
// (http::OriginServer::resolution()). When the descrambled manifest this
// source receives equals the title's, it takes the title's tracks instead of
// parsing: each pending track whose resource arrives byte-equal is the
// title's, and when every track is, the presentation handed over is the
// title's shared one, not a copy. The fetches are the same either way.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "http/http_client.h"
#include "manifest/presentation.h"

namespace vodx::player {

class MediaSource {
 public:
  struct Options {
    manifest::Protocol protocol = manifest::Protocol::kHls;
    /// Extra attempts per manifest-path fetch before it counts as failed
    /// (0 = first failure is final).
    int retries = 0;
    /// Stale-manifest fallback: skip an unfetchable variant playlist / sidx
    /// track (droppable fetches) instead of failing the whole resolution.
    bool tolerate_variant_loss = false;
  };

  /// `title`: the resolution of the title behind `client`'s proxy
  /// (http::OriginServer::resolution()), or nullptr to resolve everything
  /// received here.
  MediaSource(http::HttpClient& client, Options options,
              const manifest::Resolution* title);

  using ReadyFn = std::function<void(manifest::PresentationPtr)>;
  using ErrorFn = std::function<void(const std::string&)>;

  /// Starts resolution; exactly one of the callbacks fires eventually.
  void resolve(const std::string& manifest_url, ReadyFn on_ready,
               ErrorFn on_error);

 private:
  using Handler = std::function<void(const http::Response&)>;

  /// A queued manifest-path fetch. `droppable` marks per-track resources
  /// (variant playlists, sidx boxes) the resolution can survive without.
  struct PendingFetch {
    http::Request request;
    Handler handler;
    bool droppable = false;
    int attempts_left = 0;
  };

  void enqueue(http::Request request, Handler handler, bool droppable = false);
  void pump();
  void issue(PendingFetch entry);
  void fail(const std::string& reason);
  void finish();

  /// One track of the root manifest, in manifest order.
  struct Slot {
    /// The title's resolved track, when this track's bytes equal the
    /// title's.
    const manifest::ClientTrack* shared = nullptr;
    /// Resolved here otherwise; neither when a droppable fetch was lost.
    std::optional<manifest::ClientTrack> own;
  };

  /// Resolves the root manifest and queues each pending track's fetch.
  void handle_manifest(const std::string& url, const http::Response& resp);
  /// Queues the fetch of the resource `draft` waits on; the bytes fill
  /// slot `slot`. `source` is the title's track when the manifest was the
  /// title's, else nullptr.
  void fetch_track(std::size_t slot, const manifest::TrackDraft& draft,
                   const manifest::Resolution::Source* source);

  http::HttpClient& client_;
  Options options_;
  const manifest::Resolution* title_;
  std::deque<PendingFetch> queue_;
  bool in_flight_ = false;
  bool failed_ = false;
  /// Whether the root manifest was the title's.
  bool title_manifest_ = false;
  /// The root manifest's tracks when it was not the title's.
  std::vector<manifest::TrackDraft> drafts_;
  std::vector<Slot> slots_;
  ReadyFn on_ready_;
  ErrorFn on_error_;
};

}  // namespace vodx::player
