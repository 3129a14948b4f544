// Scene-complexity model.
//
// VBR encoders spend bits where the content needs them: complex, high-motion
// scenes get larger segments. We model content as a sequence of scenes with
// log-normally distributed durations and complexity factors; the per-segment
// complexity is the time-weighted average of the scenes it spans. All tracks
// of one asset share the same complexity sequence, so "segment 17 is big" is
// true at every quality level — exactly the property the actual-bitrate-aware
// ABR of §4.2 exploits.
#pragma once

#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace vodx::media {

/// A piecewise-constant complexity profile over the content timeline.
class SceneComplexity {
 public:
  /// Generates scenes covering at least `duration` seconds.
  static SceneComplexity generate(Seconds duration, Rng& rng);

  /// Mean complexity over [t0, t1); overall mean is normalised to ~1.
  double average_over(Seconds t0, Seconds t1) const;

  Seconds duration() const { return duration_; }

 private:
  struct Scene {
    Seconds start;
    double complexity;
  };
  std::vector<Scene> scenes_;
  Seconds duration_ = 0;
};

}  // namespace vodx::media
