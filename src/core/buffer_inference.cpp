#include "core/buffer_inference.h"

#include <algorithm>
#include <cstddef>

namespace vodx::core {
namespace {

/// The ladder's first track when `type` has one: its segment durations are
/// the media timeline downloading progress is measured on.
const AnalyzedTrack* reference_track(const AnalyzedTraffic& traffic,
                                     media::ContentType type) {
  const auto& ladder = type == media::ContentType::kVideo
                           ? traffic.video_tracks
                           : traffic.audio_tracks;
  return ladder.empty() ? nullptr : &ladder.front();
}

/// Completion time per segment index = earliest completed download of any
/// rendition; -1 where no download of that index completed.
std::vector<Seconds> earliest_completions(const AnalyzedTraffic& traffic,
                                          media::ContentType type,
                                          std::size_t segment_count) {
  std::vector<Seconds> completed(segment_count, -1);
  const int count = static_cast<int>(segment_count);
  for (const SegmentDownload& d : traffic.downloads) {
    if (d.type != type || d.aborted || d.completed_at < 0) continue;
    if (d.index < 0 || d.index >= count) continue;
    Seconds& slot = completed[static_cast<std::size_t>(d.index)];
    if (slot < 0 || d.completed_at < slot) slot = d.completed_at;
  }
  return completed;
}

/// Downloading progress as a step function of wall time, read at
/// non-decreasing times. Step i is reached once indices 0..i have all
/// completed (the prefix maximum of their completion times); its progress
/// is their durations summed from index 0, the order download_progress
/// adds them in, so every value is bit-identical to it.
class ProgressSteps {
 public:
  ProgressSteps(const AnalyzedTraffic& traffic, media::ContentType type) {
    const AnalyzedTrack* reference = reference_track(traffic, type);
    if (reference == nullptr) return;
    const std::vector<Seconds>& durations = reference->segment_durations;
    const std::vector<Seconds> completed =
        earliest_completions(traffic, type, durations.size());
    steps_.reserve(completed.size());
    Step step;
    for (std::size_t i = 0; i < completed.size(); ++i) {
      if (completed[i] < 0) break;  // contiguity ends here
      step.reached_at = std::max(step.reached_at, completed[i]);
      step.progress += durations[i];
      steps_.push_back(step);
    }
  }

  /// Progress at `wall`; `wall` must not fall below the previous call's.
  Seconds at(Seconds wall) {
    while (next_ < steps_.size() && steps_[next_].reached_at <= wall) {
      current_ = steps_[next_++].progress;
    }
    return current_;
  }

 private:
  struct Step {
    Seconds reached_at = 0;
    Seconds progress = 0;
  };
  std::vector<Step> steps_;
  std::size_t next_ = 0;
  Seconds current_ = 0;
};

}  // namespace

Seconds download_progress(const AnalyzedTraffic& traffic,
                          media::ContentType type, Seconds wall) {
  const AnalyzedTrack* reference = reference_track(traffic, type);
  if (reference == nullptr) return 0;
  const std::vector<Seconds>& durations = reference->segment_durations;
  const std::vector<Seconds> completed =
      earliest_completions(traffic, type, durations.size());
  Seconds progress = 0;
  for (std::size_t i = 0; i < completed.size(); ++i) {
    if (completed[i] < 0 || completed[i] > wall) break;  // contiguity ends
    progress += durations[i];
  }
  return progress;
}

std::vector<BufferSample> infer_buffer(const AnalyzedTraffic& traffic,
                                       const UiInference& ui,
                                       Seconds session_end, Seconds step) {
  std::vector<BufferSample> out;
  if (step > 0 && session_end >= 0) {
    out.reserve(static_cast<std::size_t>(session_end / step) + 2);
  }
  const bool separate_audio = !traffic.audio_tracks.empty();
  ProgressSteps video(traffic, media::ContentType::kVideo);
  ProgressSteps audio(traffic, media::ContentType::kAudio);
  // Playing progress, walked like UiInference::position_at: the last UI
  // sample at or before the wall time.
  const std::vector<ProgressSample>& ui_samples = ui.samples;
  std::size_t ui_next = 0;
  for (Seconds t = 0; t <= session_end + 1e-9; t += step) {
    while (ui_next < ui_samples.size() && !(t < ui_samples[ui_next].wall)) {
      ++ui_next;
    }
    const Seconds position =
        ui_next == 0
            ? 0
            : static_cast<Seconds>(ui_samples[ui_next - 1].progress);
    BufferSample sample;
    sample.wall = t;
    sample.video_buffer = std::max(0.0, video.at(t) - position);
    sample.audio_buffer = separate_audio
                              ? std::max(0.0, audio.at(t) - position)
                              : sample.video_buffer;
    out.push_back(sample);
  }
  return out;
}

}  // namespace vodx::core
