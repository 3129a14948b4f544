// A complete piece of content as hosted by an origin: the video track ladder
// and, for services that encode audio separately (§3.1), the audio tracks.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "media/track.h"

namespace vodx::media {

class VideoAsset {
 public:
  VideoAsset(std::string name, std::vector<Track> video_tracks,
             std::vector<Track> audio_tracks = {});

  const std::string& name() const { return name_; }

  /// Tracks in ascending declared-bitrate order (audio ties in the order
  /// given), the order of a client's ladders.
  const std::vector<Track>& video_tracks() const { return video_tracks_; }
  const std::vector<Track>& audio_tracks() const { return audio_tracks_; }

  bool separate_audio() const { return !audio_tracks_.empty(); }

  const Track& video_track(int level) const;
  const Track& audio_track(int level) const;
  int video_track_count() const { return static_cast<int>(video_tracks_.size()); }

  Seconds duration() const { return video_tracks_.front().duration(); }

 private:
  std::string name_;
  std::vector<Track> video_tracks_;
  std::vector<Track> audio_tracks_;
};

}  // namespace vodx::media
