#include "media/encoder.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vodx::media {

namespace {

/// Relative size jitter for kCbr segments.
constexpr double kCbrJitter = 0.03;

/// Splits `content_duration` into segments of `segment_duration` with a
/// shorter tail segment if needed.
std::vector<Seconds> segment_durations(Seconds content_duration,
                                       Seconds segment_duration) {
  VODX_ASSERT(segment_duration > 0, "segment duration must be positive");
  VODX_ASSERT(content_duration >= segment_duration,
              "content shorter than one segment");
  std::vector<Seconds> out;
  Seconds t = 0;
  while (t + segment_duration <= content_duration + 1e-9) {
    out.push_back(segment_duration);
    t += segment_duration;
  }
  if (content_duration - t > 0.25) out.push_back(content_duration - t);
  return out;
}

}  // namespace

Track encode_video_track(const std::string& id, Bps declared_bitrate,
                         Seconds content_duration, Seconds segment_duration,
                         const EncoderConfig& config,
                         const SceneComplexity& scenes, Rng& rng) {
  VODX_ASSERT(declared_bitrate > 0, "declared bitrate must be positive");
  const std::vector<Seconds> durations =
      segment_durations(content_duration, segment_duration);

  // Per-segment complexity multipliers, normalised to mean 1 after clipping.
  std::vector<double> mult(durations.size(), 1.0);
  double cap = 1.0;
  if (config.mode == EncodingMode::kVbr) {
    cap = config.declared_policy == DeclaredPolicy::kPeak
              ? config.peak_to_average
              : config.average_policy_peak;
    Seconds t = 0;
    for (std::size_t i = 0; i < durations.size(); ++i) {
      mult[i] = std::min(scenes.average_over(t, t + durations[i]), cap);
      t += durations[i];
    }
    double weighted = 0;
    for (std::size_t i = 0; i < durations.size(); ++i)
      weighted += mult[i] * durations[i];
    const double mean = weighted / content_duration;
    for (double& m : mult) m /= mean;
  } else {
    for (double& m : mult)
      m = 1.0 + rng.uniform(-kCbrJitter, kCbrJitter);
  }

  // Average actual bitrate implied by the declared policy.
  Bps average = declared_bitrate;
  if (config.mode == EncodingMode::kVbr &&
      config.declared_policy == DeclaredPolicy::kPeak) {
    average = declared_bitrate / config.peak_to_average;
  }

  std::vector<Segment> segments;
  segments.reserve(durations.size());
  for (std::size_t i = 0; i < durations.size(); ++i) {
    Segment s;
    s.duration = durations[i];
    s.size = std::max<Bytes>(1, bytes_for(average * mult[i], durations[i]));
    segments.push_back(s);
  }
  return Track(id, ContentType::kVideo, declared_bitrate,
               typical_resolution_for(declared_bitrate), std::move(segments));
}

std::vector<Track> encode_video_ladder(const std::vector<Bps>& declared,
                                       Seconds content_duration,
                                       Seconds segment_duration,
                                       const EncoderConfig& config,
                                       const SceneComplexity& scenes,
                                       Rng& rng) {
  VODX_ASSERT(!declared.empty(), "empty ladder");
  VODX_ASSERT(std::is_sorted(declared.begin(), declared.end()),
              "ladder must be ascending");
  std::vector<Track> tracks;
  tracks.reserve(declared.size());
  for (std::size_t rung = 0; rung < declared.size(); ++rung) {
    tracks.push_back(encode_video_track(
        "video/" + std::to_string(rung), declared[rung], content_duration,
        segment_duration, config, scenes, rng));
  }
  return tracks;
}

Track encode_audio_track(Bps bitrate, Seconds content_duration,
                         Seconds segment_duration, Rng& rng, int level) {
  const std::vector<Seconds> durations =
      segment_durations(content_duration, segment_duration);
  std::vector<Segment> segments;
  segments.reserve(durations.size());
  for (Seconds d : durations) {
    Segment s;
    s.duration = d;
    s.size = std::max<Bytes>(
        1, bytes_for(bitrate * (1.0 + rng.uniform(-0.02, 0.02)), d));
    segments.push_back(s);
  }
  return Track("audio/" + std::to_string(level), ContentType::kAudio, bitrate,
               Resolution{}, std::move(segments));
}

}  // namespace vodx::media
