#include "player/bandwidth_estimator.h"

namespace vodx::player {

void BandwidthEstimator::add_download(Bytes bytes, Seconds duration) {
  if (bytes <= 0 || duration <= 0) return;
  samples_window_.push_back({bytes, duration});
  if (samples_window_.size() > kEstimatorWindow) samples_window_.pop_front();
  Bytes total_bytes = 0;
  Seconds total_time = 0;
  for (const Sample& s : samples_window_) {
    total_bytes += s.bytes;
    total_time += s.duration;
  }
  estimate_ = rate_of(total_bytes, total_time);
  ++samples_;
}

}  // namespace vodx::player
