// Figure 5: distribution of actual segment bitrate normalised by declared
// bitrate, for each service's highest track.
//
// Methodology as in §3.1: DASH services expose sizes via sidx / MPD byte
// ranges; for HLS and SmoothStreaming the probe issues HTTP HEAD requests
// per segment URL (the paper uses curl) to learn sizes.
#include "support.h"

#include <cstdio>

#include "manifest/smooth.h"
#include "services/content_factory.h"

using namespace vodx;

namespace {

/// Actual/declared ratios for the highest video track, gathered the way the
/// methodology would for this service's protocol.
std::vector<double> ratio_distribution(const services::ServiceSpec& spec) {
  // A session at high bandwidth leaves the manifests (and, for DASH, every
  // sidx) in the traffic log.
  core::SessionConfig config;
  config.spec = spec;
  config.trace = net::BandwidthTrace::constant(10 * kMbps, 60);
  config.session_duration = 60;
  config.content_duration = 600;
  core::SessionResult r = core::run_session(config);
  const core::AnalyzedTrack& top = r.traffic.video_tracks.back();

  std::vector<double> ratios;
  if (!top.segment_sizes.empty()) {
    // DASH: sizes were on the wire.
    for (std::size_t i = 0; i < top.segment_sizes.size(); ++i) {
      const Bps actual =
          rate_of(top.segment_sizes[i], top.segment_durations[i]);
      ratios.push_back(actual / top.declared_bitrate);
    }
    return ratios;
  }

  // HLS / SS: HEAD every segment of the track (out-of-band, like curl).
  http::OriginServer origin = services::make_origin(spec, 600, 42);
  const media::Track& track =
      origin.asset().video_tracks().back();
  for (const media::Segment& segment : track.segments()) {
    std::string url;
    if (spec.protocol == manifest::Protocol::kHls) {
      url = format("/video/%d/seg%d.ts",
                   origin.asset().video_track_count() - 1, segment.index);
    } else {
      manifest::SmoothManifest manifest = manifest::SmoothManifest::parse(
          origin.handle({http::Method::kGet, "/manifest.ism", {}}).body);
      const manifest::SmoothStreamIndex& stream = manifest.stream_indexes[0];
      stream.fragment_url(track.declared_bitrate(),
                          stream.chunk_start_ticks(segment.index), url);
      url = "/" + url;
    }
    http::Response head = origin.handle({http::Method::kHead, url, {}});
    if (!head.ok()) continue;
    ratios.push_back(rate_of(head.head_content_length, segment.duration) /
                     track.declared_bitrate());
  }
  return ratios;
}

}  // namespace

int main() {
  bench::banner("Figure 5",
                "actual segment bitrate / declared bitrate, highest track");

  Table table({"service", "min", "p25", "median", "p75", "max", "encoding"});
  for (const services::ServiceSpec& spec : services::catalog()) {
    std::vector<double> ratios = ratio_distribution(spec);
    std::string encoding =
        spec.encoding == media::EncodingMode::kCbr ? "CBR" : "VBR";
    if (spec.encoding == media::EncodingMode::kVbr) {
      encoding += spec.declared_policy == media::DeclaredPolicy::kPeak
                      ? " (declared~peak)"
                      : " (declared~avg)";
    }
    table.add_row(spec.name, format("%.2f", min_of(ratios)),
                   format("%.2f", percentile(ratios, 25)),
                   format("%.2f", median(ratios)),
                   format("%.2f", percentile(ratios, 75)),
                   format("%.2f", max_of(ratios)), encoding);
  }
  table.print();

  std::printf("\n");
  bench::compare("S1/S2 declared near average actual (median ~1)", "yes",
                 "see S1/S2 rows");
  bench::compare("peak-declared VBR: declared ~2x average (D1/D2)",
                 "peak = 2x avg", "median ratio ~0.5 for D1/D2");
  bench::compare("CBR services show ratio ~1 with no spread", "3 services",
                 "H2/H3/H5");
  return 0;
}
