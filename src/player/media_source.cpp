#include "player/media_source.h"

#include <algorithm>
#include <memory>
#include <string_view>

#include "common/error.h"
#include "common/strings.h"
#include "http/origin_server.h"

namespace vodx::player {

MediaSource::MediaSource(http::HttpClient& client, Options options,
                         const manifest::Resolution* title)
    : client_(client), options_(options), title_(title) {}

void MediaSource::resolve(const std::string& manifest_url, ReadyFn on_ready,
                          ErrorFn on_error) {
  on_ready_ = std::move(on_ready);
  on_error_ = std::move(on_error);
  enqueue(http::Request{http::Method::kGet, manifest_url, std::nullopt},
          [this, manifest_url](const http::Response& r) {
            handle_manifest(manifest_url, r);
          });
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
  if (!on_ready_) return;
  const bool all_shared =
      title_manifest_ &&
      std::all_of(slots_.begin(), slots_.end(),
                  [](const Slot& slot) { return slot.shared != nullptr; });
  if (all_shared) {
    on_ready_(title_->shared_presentation());
    return;
  }
  auto presentation = std::make_shared<manifest::Presentation>();
  for (Slot& slot : slots_) {
    if (slot.shared != nullptr) {
      presentation->add(*slot.shared);
    } else if (slot.own) {
      presentation->add(std::move(*slot.own));
    }
  }
  presentation->sort_tracks();
  on_ready_(std::move(presentation));
}

void MediaSource::handle_manifest(const std::string& url,
                                  const http::Response& resp) {
  std::string_view body = resp.body;
  std::string clear;
  if (options_.protocol == manifest::Protocol::kDash &&
      http::is_scrambled(resp.body)) {
    clear = http::unscramble_manifest(resp.body);
    body = clear;
  }
  if (const std::vector<manifest::Resolution::Source>* sources =
          title_ != nullptr
              ? title_->sources_for(options_.protocol, url, body)
              : nullptr) {
    title_manifest_ = true;
    slots_.resize(sources->size());
    for (std::size_t i = 0; i < sources->size(); ++i) {
      const manifest::Resolution::Source& source = (*sources)[i];
      if (source.draft) {
        fetch_track(i, *source.draft, &source);
      } else {
        slots_[i].shared = source.track;
      }
    }
    return;
  }
  drafts_ = manifest::resolve_manifest(options_.protocol, url, body);
  slots_.resize(drafts_.size());
  for (std::size_t i = 0; i < drafts_.size(); ++i) {
    if (drafts_[i].pending) {
      fetch_track(i, drafts_[i], nullptr);
    } else {
      slots_[i].own = std::move(drafts_[i].track);
    }
  }
}

void MediaSource::fetch_track(std::size_t slot,
                              const manifest::TrackDraft& draft,
                              const manifest::Resolution::Source* source) {
  http::Request request{http::Method::kGet, draft.pending->url,
                        draft.pending->range};
  enqueue(
      std::move(request),
      [this, slot, &draft, source](const http::Response& r) {
        if (source != nullptr && source->body == r.body) {
          slots_[slot].shared = source->track;
        } else {
          slots_[slot].own = manifest::complete_track(draft, r.body);
        }
      },
      /*droppable=*/true);
}

}  // namespace vodx::player
