// Synthetic encoder.
//
// Produces per-segment sizes for a bitrate ladder without touching real
// pixels. What matters downstream is the *statistics* the paper measures:
//
//  * CBR: every segment of a track has (nearly) the same actual bitrate, so
//    the declared bitrate is a good proxy (§4.2 history).
//  * VBR with peak-declared: actual segment bitrates vary ~2x within a track
//    and the declared bitrate sits near the per-track peak, so the average
//    actual bitrate is roughly half the declared one (Fig. 5, D2's 2x gap).
//  * VBR with average-declared: declared sits near the average, so some
//    segments exceed it (Fig. 5, S1/S2).
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "media/scene.h"
#include "media/track.h"

namespace vodx::media {

enum class EncodingMode { kCbr, kVbr };

/// How the manifest's declared bitrate relates to the actual encoding.
enum class DeclaredPolicy { kPeak, kAverage };

struct EncoderConfig {
  EncodingMode mode = EncodingMode::kVbr;
  DeclaredPolicy declared_policy = DeclaredPolicy::kPeak;
  /// declared/average ratio enforced for kVbr+kPeak (the paper observes ~2).
  double peak_to_average = 2.0;
  /// Peak cap relative to average for kVbr+kAverage encodings.
  double average_policy_peak = 1.5;
};

/// Encodes one video track. `declared_bitrate` is what the manifest will
/// advertise; actual segment sizes follow the config and scene complexity.
Track encode_video_track(const std::string& id, Bps declared_bitrate,
                         Seconds content_duration, Seconds segment_duration,
                         const EncoderConfig& config,
                         const SceneComplexity& scenes, Rng& rng);

/// Encodes a full ladder; all rungs share `scenes` so size variations line up
/// across tracks. Track ids are "video/<rung>". Rungs must be ascending.
std::vector<Track> encode_video_ladder(const std::vector<Bps>& declared,
                                       Seconds content_duration,
                                       Seconds segment_duration,
                                       const EncoderConfig& config,
                                       const SceneComplexity& scenes,
                                       Rng& rng);

/// Audio is always (near-)CBR. Track id is "audio/<level>".
Track encode_audio_track(Bps bitrate, Seconds content_duration,
                         Seconds segment_duration, Rng& rng, int level = 0);

}  // namespace vodx::media
