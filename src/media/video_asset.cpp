#include "media/video_asset.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vodx::media {

VideoAsset::VideoAsset(std::string name, std::vector<Track> video_tracks,
                       std::vector<Track> audio_tracks)
    : name_(std::move(name)),
      video_tracks_(std::move(video_tracks)),
      audio_tracks_(std::move(audio_tracks)) {
  VODX_ASSERT(!video_tracks_.empty(), "asset needs video tracks");
  const auto by_bitrate = [](const Track& a, const Track& b) {
    return a.declared_bitrate() < b.declared_bitrate();
  };
  std::sort(video_tracks_.begin(), video_tracks_.end(), by_bitrate);
  std::stable_sort(audio_tracks_.begin(), audio_tracks_.end(), by_bitrate);
  const Seconds dur = video_tracks_.front().duration();
  for (const Track& t : video_tracks_) {
    VODX_ASSERT(t.type() == ContentType::kVideo, "video ladder holds video");
    VODX_ASSERT(std::abs(t.duration() - dur) < 1e-6,
                "all tracks must cover the same duration");
  }
  for (const Track& t : audio_tracks_) {
    VODX_ASSERT(t.type() == ContentType::kAudio, "audio ladder holds audio");
  }
}

const Track& VideoAsset::video_track(int level) const {
  VODX_ASSERT(level >= 0 && level < video_track_count(), "bad video level");
  return video_tracks_[static_cast<std::size_t>(level)];
}

const Track& VideoAsset::audio_track(int level) const {
  VODX_ASSERT(level >= 0 &&
                  level < static_cast<int>(audio_tracks_.size()),
              "bad audio level");
  return audio_tracks_[static_cast<std::size_t>(level)];
}

}  // namespace vodx::media
