// DASH Media Presentation Description (ISO/IEC 23009-1 subset).
//
// Two indexing modes, matching what the paper observed in the wild (§2.3):
//  * kSegmentList — segment byte ranges and durations directly in the MPD
//    (SegmentList + SegmentTimeline), the D1 style;
//  * kSidx — the MPD only names the media file and the sidx index range
//    (SegmentBase@indexRange), the D2/D3/D4 style; clients fetch and parse
//    the sidx to learn per-segment ranges.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "manifest/presentation.h"
#include "media/types.h"

namespace vodx::manifest {

enum class DashIndexMode {
  kSegmentList,     ///< byte ranges and durations inline in the MPD (D1)
  kSidx,            ///< SegmentBase@indexRange -> sidx in the media file
  kSegmentTemplate  ///< $Number$-templated per-segment files (no sizes)
};

struct DashSegmentRef {
  Seconds duration = 0;
  ByteRange media_range;
};

struct DashRepresentation {
  std::string id;
  Bps bandwidth = 0;
  media::Resolution resolution;  ///< zero for audio
  std::string base_url;          ///< media file, relative to the MPD
  /// kSidx mode: where the sidx box sits inside the media file.
  std::optional<ByteRange> index_range;
  /// kSegmentList mode: explicit per-segment ranges and durations.
  std::vector<DashSegmentRef> segments;
  /// kSegmentTemplate mode: $Number$ template plus per-segment durations.
  std::string media_template;
  int start_number = 1;
  std::vector<Seconds> template_durations;

  /// Writes the $Number$ template's expansion for segment `index`
  /// (0-based) into `out`, replacing what it held.
  void template_url(int index, std::string& out) const;
};

struct DashAdaptationSet {
  media::ContentType content_type = media::ContentType::kVideo;
  std::vector<DashRepresentation> representations;
};

struct DashMpd {
  Seconds media_presentation_duration = 0;
  std::vector<DashAdaptationSet> adaptation_sets;

  std::string serialize() const;
  static DashMpd parse(std::string_view text);
};

/// ISO 8601 duration helpers ("PT1M30.5S").
std::string iso8601_duration(Seconds seconds);
Seconds parse_iso8601_duration(std::string_view text);

}  // namespace vodx::manifest
