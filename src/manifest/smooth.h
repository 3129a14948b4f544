// Microsoft SmoothStreaming client manifest (subset).
//
// SmoothStreaming describes each stream with quality levels and per-chunk
// durations; clients build fragment URLs from a template with {bitrate} and
// {start time} placeholders. No segment sizes are exposed — which is why the
// paper's analyzer issues HTTP HEAD requests to learn them (§3.1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "media/types.h"

namespace vodx::manifest {

/// SmoothStreaming expresses times in 100 ns ticks.
constexpr std::uint64_t kSmoothTimescale = 10'000'000;

struct SmoothQualityLevel {
  Bps bitrate = 0;
  media::Resolution resolution;  ///< zero for audio
};

struct SmoothStreamIndex {
  media::ContentType type = media::ContentType::kVideo;
  /// e.g. "QualityLevels({bitrate})/Fragments(video={start time})"
  std::string url_template;
  std::vector<SmoothQualityLevel> quality_levels;
  std::vector<Seconds> chunk_durations;

  /// Writes the template's expansion for one fragment into `out`,
  /// replacing what it held.
  void fragment_url(Bps bitrate, std::uint64_t start_ticks,
                    std::string& out) const;

  /// Start tick of chunk `index`.
  std::uint64_t chunk_start_ticks(int index) const;
};

struct SmoothManifest {
  Seconds duration = 0;
  std::vector<SmoothStreamIndex> stream_indexes;

  std::string serialize() const;
  static SmoothManifest parse(std::string_view text);
};

}  // namespace vodx::manifest
