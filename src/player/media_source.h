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
// holds the app key (can_descramble) while the man-in-the-middle does not.
#pragma once

#include <deque>
#include <functional>
#include <string>

#include "http/http_client.h"
#include "manifest/presentation.h"

namespace vodx::player {

class MediaSource {
 public:
  struct Options {
    manifest::Protocol protocol = manifest::Protocol::kHls;
    bool can_descramble = false;
    /// Extra attempts per manifest-path fetch before it counts as failed
    /// (0 = first failure is final).
    int retries = 0;
    /// Stale-manifest fallback: skip an unfetchable variant playlist / sidx
    /// track (droppable fetches) instead of failing the whole resolution.
    bool tolerate_variant_loss = false;
  };

  MediaSource(http::HttpClient& client, Options options);

  using ReadyFn = std::function<void(manifest::Presentation)>;
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

  /// Resolves the root manifest and queues each pending track's fetch.
  void handle_manifest(const std::string& url, const http::Response& resp);

  http::HttpClient& client_;
  Options options_;
  std::deque<PendingFetch> queue_;
  bool in_flight_ = false;
  bool failed_ = false;
  manifest::Presentation presentation_;
  ReadyFn on_ready_;
  ErrorFn on_error_;
};

}  // namespace vodx::player
