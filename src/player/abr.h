// Adaptation (track selection) logic.
//
// Two families cover the behaviours observed across the 12 services
// (§3.3.3–3.3.4):
//
//  * ThroughputAbr — pick the highest track whose estimated need fits within
//    safety * bandwidth estimate. The "need" is the declared bitrate, or,
//    with use_actual_bitrate (§4.2 best practice), the worst actual bitrate
//    among the next few segments. Optional buffer damping (decrease_buffer)
//    refuses down-switches while the buffer is comfortable.
//  * OscillatingAbr — the D1 behaviour: chases the buffer slope, stepping up
//    whenever the buffer grew since the last decision and down when it
//    shrank, so it never converges even under constant bandwidth (Fig. 8).
#pragma once

#include <memory>

#include "common/units.h"
#include "manifest/presentation.h"
#include "player/config.h"

namespace vodx::player {

/// Samples required before the ABR trusts its estimate; until then it
/// stays on the startup track (the §4.3 H3 failure mode needs >= 2).
inline constexpr int kEstimatorMinSamples = 2;

/// Switch confirmation: ThroughputAbr only leaves the current track upward
/// after this many consecutive decisions agree on the move. Suppresses the
/// boundary oscillation that per-download throughput noise would otherwise
/// cause — every studied service except D1 shows this damping (§3.3.3).
inline constexpr int kSwitchConfirmation = 2;

struct AbrContext {
  const manifest::Presentation* presentation = nullptr;
  Bps bandwidth_estimate = 0;  ///< 0 until the first sample
  int estimator_samples = 0;
  Seconds buffer = 0;          ///< buffered video seconds
  Seconds buffer_delta = 0;    ///< change since the previous decision
  int last_level = 0;
  int next_index = 0;          ///< segment the decision is for
  int startup_level = 0;
};

class AbrPolicy {
 public:
  virtual ~AbrPolicy() = default;
  virtual int select_video_level(const AbrContext& context) = 0;
};

/// Bandwidth a track will need around `next_index`, per the config's
/// declared-vs-actual setting. Exposed for tests and the SR engine.
Bps track_required_rate(const manifest::ClientTrack& track, int next_index,
                        const PlayerConfig& config);

std::unique_ptr<AbrPolicy> make_abr(const PlayerConfig& config);

}  // namespace vodx::player
