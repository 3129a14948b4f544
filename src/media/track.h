// Segment and track model.
//
// A track is one encoding (quality level) of the content, split into
// segments. Segment sizes are what a real encoder would have produced; all
// byte accounting downstream (HTTP transfers, data-usage analysis) derives
// from them.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "media/types.h"

namespace vodx::media {

struct Segment {
  int index = 0;          ///< position within the track, 0-based
  Seconds duration = 0;   ///< presentation duration
  Bytes size = 0;         ///< encoded size
  Bytes offset = 0;       ///< byte offset inside the track's media file

  Bps actual_bitrate() const { return rate_of(size, duration); }
};

class Track {
 public:
  Track(std::string id, ContentType type, Bps declared_bitrate,
        Resolution resolution, std::vector<Segment> segments);

  const std::string& id() const { return id_; }
  ContentType type() const { return type_; }

  /// The bitrate advertised in the manifest (§2.1 "declared bitrate").
  Bps declared_bitrate() const { return declared_bitrate_; }
  Resolution resolution() const { return resolution_; }

  const std::vector<Segment>& segments() const { return segments_; }
  const Segment& segment(int index) const;
  int segment_count() const { return static_cast<int>(segments_.size()); }

  Seconds duration() const { return duration_; }
  Bytes total_size() const { return total_size_; }

  /// Mean of per-segment actual bitrates, duration-weighted.
  Bps average_actual_bitrate() const;

 private:
  std::string id_;
  ContentType type_;
  Bps declared_bitrate_;
  Resolution resolution_;
  std::vector<Segment> segments_;
  Seconds duration_ = 0;
  Bytes total_size_ = 0;
};

}  // namespace vodx::media
