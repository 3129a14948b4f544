// Throughput estimation from completed segment downloads.
//
// Aggregate sliding-window estimate: total bytes over total transfer time of
// the most recent downloads (the ExoPlayer BandwidthMeter idea). Aggregating
// makes single out-of-line downloads — one slow-started transfer after an
// idle pause, one tiny segment — count in proportion to the time they
// actually occupied, which a per-download EWMA gets badly wrong.
#pragma once

#include <cstddef>
#include <deque>

#include "common/units.h"

namespace vodx::player {

/// Downloads aggregated into one estimate: 4 / 0.3, about as many as an
/// EWMA giving the newest sample a weight of 0.3 remembers.
inline constexpr std::size_t kEstimatorWindow = 13;

class BandwidthEstimator {
 public:
  /// Feeds one download: payload bytes over transfer duration.
  void add_download(Bytes bytes, Seconds duration);

  Bps estimate() const { return estimate_; }
  int sample_count() const { return samples_; }

 private:
  struct Sample {
    Bytes bytes;
    Seconds duration;
  };

  std::deque<Sample> samples_window_;
  Bps estimate_ = 0;
  int samples_ = 0;
};

}  // namespace vodx::player
