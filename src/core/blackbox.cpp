#include "core/blackbox.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "common/error.h"
#include "core/session_factory.h"
#include "manifest/dash_mpd.h"
#include "player/media_source.h"
#include "services/content_factory.h"

namespace vodx::core {

namespace {

SessionConfig base_session(const services::ServiceSpec& spec,
                           net::BandwidthTrace trace, Seconds duration) {
  SessionFactory factory;
  factory.session_duration = duration;
  // Probes run short sessions against full-length content: the startup
  // probe must never be rescued by content simply running out.
  factory.content_duration = std::max(duration, 600.0);
  return factory.config(spec, std::move(trace));
}

/// Modal declared bitrate (by downloaded duration) among steady-state video
/// downloads, plus distinct level count and switch count.
struct SteadyStats {
  std::map<int, Seconds> seconds_by_level;
  int switches = 0;
  std::map<int, Bps> declared_by_level;
};

SteadyStats steady_stats(const AnalyzedTraffic& traffic, Seconds warmup,
                         Seconds until = 1e18) {
  SteadyStats stats;
  int previous_level = -1;
  for (const SegmentDownload& d : traffic.downloads) {
    if (d.type != media::ContentType::kVideo || d.aborted) continue;
    if (d.requested_at < warmup || d.requested_at > until) continue;
    stats.seconds_by_level[d.level] += d.duration;
    stats.declared_by_level[d.level] = d.declared_bitrate;
    if (previous_level >= 0 && d.level != previous_level) ++stats.switches;
    previous_level = d.level;
  }
  return stats;
}

}  // namespace

namespace {

/// Interceptor behind reject_after_n_video_segments: binds a
/// SegmentClassifier to the proxy's live traffic log at attach() time, then
/// rejects every video segment beyond the first `allow` distinct indices.
class RejectAfterNVideoSegments : public http::Interceptor {
 public:
  explicit RejectAfterNVideoSegments(int allow) : allow_(allow) {}

  void attach(http::Proxy& proxy) override {
    classifier_ = std::make_unique<SegmentClassifier>(proxy.log());
  }

  std::optional<http::Response> on_request(const http::Request& request,
                                           Seconds /*now*/) override {
    VODX_ASSERT(classifier_ != nullptr,
                "interceptor used before being attached to a proxy");
    std::optional<SegmentRef> ref =
        classifier_->classify(request.url, request.range);
    if (!ref || ref->type != media::ContentType::kVideo) return std::nullopt;
    if (allowed_.count(ref->index) > 0) return std::nullopt;
    if (static_cast<int>(allowed_.size()) < allow_) {
      allowed_.insert(ref->index);
      return std::nullopt;
    }
    return http::make_error(403, "rejected by proxy");
  }

 private:
  int allow_;
  std::unique_ptr<SegmentClassifier> classifier_;
  std::set<int> allowed_;
};

}  // namespace

http::InterceptorPtr reject_after_n_video_segments(int allow) {
  return std::make_shared<RejectAfterNVideoSegments>(allow);
}

StartupProbe probe_startup(const services::ServiceSpec& spec) {
  constexpr Bps kProbeBandwidth = 8 * kMbps;  // rejection is the only limit
  constexpr int kMaxSegments = 16;  // give up past this many admitted
  StartupProbe probe;
  for (int n = 1; n <= kMaxSegments; ++n) {
    SessionConfig config = base_session(
        spec, net::BandwidthTrace::constant(kProbeBandwidth, 120), 90);
    config.interceptors.push_back(reject_after_n_video_segments(n));
    SessionResult result = run_session(config);
    if (result.ui.startup_delay < 0) continue;  // still not playing
    probe.playback_achievable = true;
    probe.min_segments = n;
    // Duration and declared bitrate of the admitted segments, from traffic.
    int counted = 0;
    for (const SegmentDownload& d : result.traffic.downloads) {
      if (d.type != media::ContentType::kVideo || d.aborted) continue;
      if (counted == 0) probe.startup_bitrate = d.declared_bitrate;
      probe.startup_buffer += d.duration;
      if (++counted == n) break;
    }
    return probe;
  }
  return probe;
}

ThresholdProbe probe_thresholds(const services::ServiceSpec& spec) {
  constexpr Bps bandwidth = 10 * kMbps;  // fast enough that pausing kicks in
  constexpr Seconds duration = 600;
  SessionConfig config = base_session(
      spec, net::BandwidthTrace::constant(bandwidth, duration), duration);
  SessionResult result = run_session(config);

  // Wall intervals during which at least one video download is active.
  std::vector<std::pair<Seconds, Seconds>> active;
  for (const SegmentDownload& d : result.traffic.downloads) {
    if (d.type != media::ContentType::kVideo) continue;
    const Seconds end = d.completed_at >= 0 ? d.completed_at : duration;
    if (!active.empty() && d.requested_at <= active.back().second + 0.5) {
      active.back().second = std::max(active.back().second, end);
    } else {
      active.emplace_back(d.requested_at, end);
    }
  }

  auto buffer_at = [&](Seconds wall) {
    const std::size_t slot = static_cast<std::size_t>(
        std::clamp(wall, 0.0, duration));
    return slot < result.buffer.size() ? result.buffer[slot].video_buffer
                                       : 0.0;
  };

  ThresholdProbe probe;
  double pausing_sum = 0;
  double resuming_sum = 0;
  for (std::size_t i = 0; i + 1 < active.size(); ++i) {
    const Seconds gap_start = active[i].second;
    const Seconds gap_end = active[i + 1].first;
    if (gap_end - gap_start < 3.0) continue;  // not a pause, just pacing
    // Don't count the gap caused by running out of content.
    pausing_sum += buffer_at(gap_start);
    resuming_sum += buffer_at(gap_end);
    ++probe.pause_cycles;
  }
  if (probe.pause_cycles > 0) {
    probe.pausing_threshold = pausing_sum / probe.pause_cycles;
    probe.resuming_threshold = resuming_sum / probe.pause_cycles;
  }
  return probe;
}

SteadyStateProbe probe_steady_state(const services::ServiceSpec& spec,
                                    const SteadyStateProbeOptions& options) {
  VODX_ASSERT(options.bandwidth > 0, "steady-state probe needs a bandwidth");
  const Bps bandwidth = options.bandwidth;
  const Seconds duration = options.duration;
  SessionConfig config = base_session(
      spec, net::BandwidthTrace::constant(bandwidth, duration), duration);
  SessionResult result = run_session(config);
  SteadyStats stats = steady_stats(result.traffic, options.warmup);

  SteadyStateProbe probe;
  probe.distinct_levels = static_cast<int>(stats.seconds_by_level.size());
  probe.steady_switches = stats.switches;
  Seconds total = 0;
  Seconds best = 0;
  int modal_level = -1;
  for (const auto& [level, secs] : stats.seconds_by_level) {
    total += secs;
    if (secs > best) {
      best = secs;
      modal_level = level;
    }
  }
  if (modal_level >= 0 && total > 0) {
    probe.converged = best / total >= 0.9;
    probe.modal_declared_bitrate = stats.declared_by_level[modal_level];
    probe.declared_over_bandwidth = probe.modal_declared_bitrate / bandwidth;
  }
  return probe;
}

StepProbe probe_step_response(const services::ServiceSpec& spec) {
  constexpr Bps high = 6 * kMbps;  // rate before the step
  constexpr Bps low = 1.5 * kMbps;  // rate after the step
  constexpr Seconds step_at = 150;
  constexpr Seconds duration = 500;
  // A down-switch with more than this many seconds still buffered counts
  // as "immediate".
  constexpr Seconds immediate_cutoff = 60;
  SessionConfig config = base_session(
      spec, net::BandwidthTrace::step(high, low, step_at, duration), duration);
  SessionResult result = run_session(config);

  // The level the player had settled on before the step.
  SteadyStats before = steady_stats(result.traffic, step_at * 0.4, step_at);
  int settled_level = -1;
  Seconds best = 0;
  for (const auto& [level, secs] : before.seconds_by_level) {
    if (secs > best) {
      best = secs;
      settled_level = level;
    }
  }

  StepProbe probe;
  if (settled_level < 0) return probe;
  for (const SegmentDownload& d : result.traffic.downloads) {
    if (d.type != media::ContentType::kVideo || d.aborted) continue;
    if (d.requested_at <= step_at || d.level >= settled_level) continue;
    probe.switched_down = true;
    const std::size_t slot =
        static_cast<std::size_t>(std::clamp(d.requested_at, 0.0, duration));
    probe.buffer_at_downswitch =
        slot < result.buffer.size() ? result.buffer[slot].video_buffer : 0;
    probe.immediate = probe.buffer_at_downswitch > immediate_cutoff;
    break;
  }
  return probe;
}

// ---------------------------------------------------------------------------
// §3.1 encoding probe
// ---------------------------------------------------------------------------

namespace {

/// Minimal synchronous fetch driver for probe-style traffic: issues one
/// request at a time over a fresh simulated fast link.
class SyncFetcher {
 public:
  explicit SyncFetcher(const services::ServiceSpec& spec)
      : sim_(0.01),
        link_(sim_, net::BandwidthTrace::constant(20 * kMbps, 3600), 0.03),
        origin_(services::make_origin(spec, 600, 42)),
        proxy_(origin_),
        client_(sim_, link_, proxy_, options()) {}

  static http::HttpClient::Options options() {
    http::HttpClient::Options out;
    out.max_connections = 2;
    out.tcp.rtt = 0.03;
    return out;
  }

  http::Response fetch(const http::Request& request) {
    std::optional<http::Response> out;
    client_.fetch(request, [&](const http::Response& r) { out = r; });
    while (!out) sim_.run_for(0.1);
    return *out;
  }

  /// Resolves the origin's presentation the way a player does.
  manifest::PresentationPtr resolve(manifest::Protocol protocol) {
    manifest::PresentationPtr out;
    std::optional<std::string> error;
    player::MediaSource source(client_, {.protocol = protocol},
                               origin_.resolution());
    source.resolve(
        origin_.manifest_url(),
        [&](manifest::PresentationPtr p) { out = std::move(p); },
        [&](const std::string& reason) { error = reason; });
    while (!out && !error) sim_.run_for(0.1);
    if (error) throw Error("manifest resolution failed: " + *error);
    return out;
  }

 private:
  net::Simulator sim_;
  net::Link link_;
  http::OriginServer origin_;
  http::Proxy proxy_;
  http::HttpClient client_;
};

std::vector<double> ratios_from(const std::vector<Seconds>& durations,
                                const std::vector<Bytes>& sizes,
                                Bps declared) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < sizes.size() && i < durations.size(); ++i) {
    ratios.push_back(rate_of(sizes[i], durations[i]) / declared);
  }
  return ratios;
}

}  // namespace

bool EncodingProbe::looks_cbr(double tolerance) const {
  if (ratios.empty()) return false;
  double lo = ratios.front();
  double hi = ratios.front();
  for (double r : ratios) {
    lo = std::min(lo, r);
    hi = std::max(hi, r);
  }
  const double mid = (lo + hi) / 2;
  return mid > 0 && (hi - lo) / mid < tolerance;
}

media::DeclaredPolicy EncodingProbe::inferred_policy() const {
  double sum = 0;
  for (double r : ratios) sum += r;
  const double mean = ratios.empty() ? 0 : sum / ratios.size();
  // Peak-declared VBR has mean actual well below the declared bitrate;
  // average-declared (and CBR) sits around it.
  return mean < 0.8 ? media::DeclaredPolicy::kPeak
                    : media::DeclaredPolicy::kAverage;
}

EncodingProbe probe_encoding(const services::ServiceSpec& spec) {
  EncodingProbe probe;

  if (spec.protocol == manifest::Protocol::kDash && spec.encrypt_manifest) {
    // Encrypted MPD: fall back to what a session leaves on the wire — the
    // analyzer reconstructs tracks (sizes included) from the sidx boxes.
    SessionConfig config;
    config.spec = spec;
    config.trace = net::BandwidthTrace::constant(10 * kMbps, 60);
    config.session_duration = 60;
    config.content_duration = 600;
    SessionResult r = run_session(config);
    const AnalyzedTrack& top = r.traffic.video_tracks.back();
    probe.sizes_from_wire = true;
    probe.ratios = ratios_from(top.segment_durations, top.segment_sizes,
                               top.declared_bitrate);
    return probe;
  }

  SyncFetcher fetcher(spec);
  const manifest::PresentationPtr presentation =
      fetcher.resolve(spec.protocol);
  VODX_ASSERT(!presentation->video.empty(), "presentation without video");
  // DASH sizes come from the MPD or the sidx, HLS v4 sizes from byte
  // ranges; every other segment costs one HEAD.
  const manifest::ClientTrack& top = presentation->video.back();
  for (const manifest::ClientSegment& seg : top.segments) {
    Bytes size = seg.size;
    if (size > 0) {
      probe.sizes_from_wire = true;
    } else {
      http::Response r =
          fetcher.fetch({http::Method::kHead, top.url_of(seg), std::nullopt});
      size = r.ok() ? r.head_content_length : 0;
    }
    if (size > 0) {
      probe.ratios.push_back(rate_of(size, seg.duration) /
                             top.declared_bitrate);
    }
  }
  return probe;
}

// ---------------------------------------------------------------------------
// Fig.-12 manifest variants
// ---------------------------------------------------------------------------

namespace {

std::string rewrite_mpd(const std::string& body, bool shift) {
  manifest::DashMpd mpd = manifest::DashMpd::parse(body);
  for (manifest::DashAdaptationSet& set : mpd.adaptation_sets) {
    if (set.content_type != media::ContentType::kVideo) continue;
    auto& reps = set.representations;
    if (reps.size() < 2) continue;
    std::sort(reps.begin(), reps.end(),
              [](const manifest::DashRepresentation& a,
                 const manifest::DashRepresentation& b) {
                return a.bandwidth < b.bandwidth;
              });
    if (shift) {
      // Variant 1: declared bitrate of rung i, media of rung i-1.
      for (std::size_t i = reps.size() - 1; i >= 1; --i) {
        reps[i].base_url = reps[i - 1].base_url;
        reps[i].index_range = reps[i - 1].index_range;
        reps[i].segments = reps[i - 1].segments;
      }
    }
    // Both variants drop the lowest rung so the track counts match.
    reps.erase(reps.begin());
  }
  return mpd.serialize();
}

}  // namespace

http::InterceptorPtr shift_tracks_variant() {
  return http::transform_manifest([](const std::string& url, std::string body) {
    if (url.find(".mpd") == std::string::npos) return body;
    return rewrite_mpd(body, /*shift=*/true);
  });
}

http::InterceptorPtr drop_lowest_variant() {
  return http::transform_manifest([](const std::string& url, std::string body) {
    if (url.find(".mpd") == std::string::npos) return body;
    return rewrite_mpd(body, /*shift=*/false);
  });
}

DeclaredVsActualProbe probe_declared_vs_actual(
    const services::ServiceSpec& spec, const DeclaredVsActualOptions& options) {
  VODX_ASSERT(spec.protocol == manifest::Protocol::kDash,
              "the Fig.-12 probe rewrites DASH MPDs");
  const Bps bandwidth = options.bandwidth;
  const Seconds duration = options.duration;
  constexpr Seconds warmup = 120;  // excluded from steady-state stats
  auto run_variant = [&](http::InterceptorPtr transform) {
    SessionConfig config = base_session(
        spec, net::BandwidthTrace::constant(bandwidth, duration), duration);
    config.interceptors.push_back(std::move(transform));
    SessionResult result = run_session(config);
    SteadyStats stats = steady_stats(result.traffic, warmup);
    Seconds best = 0;
    Bps declared = 0;
    for (const auto& [level, secs] : stats.seconds_by_level) {
      if (secs > best) {
        best = secs;
        declared = stats.declared_by_level[level];
      }
    }
    return declared;
  };

  DeclaredVsActualProbe probe;
  probe.selected_declared_variant1 = run_variant(shift_tracks_variant());
  probe.selected_declared_variant2 = run_variant(drop_lowest_variant());
  probe.declared_only =
      std::abs(probe.selected_declared_variant1 -
               probe.selected_declared_variant2) < 1.0;

  // Utilization on the unmodified stream (§4.2's 33.7%-of-2-Mbps finding).
  SessionConfig config = base_session(
      spec, net::BandwidthTrace::constant(bandwidth, duration), duration);
  SessionResult result = run_session(config);
  Bytes steady_bytes = 0;
  for (const SegmentDownload& d : result.traffic.downloads) {
    if (d.requested_at >= warmup && !d.aborted) steady_bytes += d.bytes;
  }
  probe.bandwidth_utilization =
      rate_of(steady_bytes, duration - warmup) / bandwidth;
  return probe;
}

}  // namespace vodx::core
