#include "media/scene.h"

#include <algorithm>

#include "common/error.h"

namespace vodx::media {

namespace {
constexpr Seconds kMeanSceneDuration = 8.0;
// Sigmas of the log-normal scene durations and scene complexity.
constexpr double kDurationSigma = 0.6;
constexpr double kComplexitySigma = 0.5;
}  // namespace

SceneComplexity SceneComplexity::generate(Seconds duration, Rng& rng) {
  VODX_ASSERT(duration > 0, "need positive duration");
  SceneComplexity out;
  Seconds t = 0;
  double weighted_sum = 0;
  while (t < duration) {
    Seconds scene_dur =
        std::max(0.5, rng.lognormal(kMeanSceneDuration, kDurationSigma));
    scene_dur = std::min(scene_dur, duration - t);
    double complexity = rng.lognormal(1.0, kComplexitySigma);
    out.scenes_.push_back({t, complexity});
    weighted_sum += complexity * scene_dur;
    t += scene_dur;
  }
  out.duration_ = duration;
  // Normalise so the duration-weighted mean complexity is exactly 1; this
  // makes encoder bitrate targets exact in expectation and in realisation.
  const double mean = weighted_sum / duration;
  for (Scene& s : out.scenes_) s.complexity /= mean;
  return out;
}

double SceneComplexity::average_over(Seconds t0, Seconds t1) const {
  VODX_ASSERT(t1 > t0, "empty interval");
  t0 = std::clamp(t0, 0.0, duration_);
  t1 = std::clamp(t1, 0.0, duration_);
  if (t1 <= t0) return 1.0;
  double sum = 0;
  for (std::size_t i = 0; i < scenes_.size(); ++i) {
    Seconds start = std::max(scenes_[i].start, t0);
    Seconds end = (i + 1 < scenes_.size()) ? scenes_[i + 1].start : duration_;
    end = std::min(end, t1);
    if (end > start) sum += scenes_[i].complexity * (end - start);
  }
  return sum / (t1 - t0);
}

}  // namespace vodx::media
