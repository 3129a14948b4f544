// LTE RRC radio-energy model (§3.3.2).
//
// The paper observes that 8 of the 12 services keep the pausing and resuming
// thresholds within 10 s of each other — shorter than the LTE RRC demotion
// timer — so the radio never leaves the high-power state during download
// pauses, and suggests spacing the thresholds wider to save energy.
//
// This module makes that claim quantitative: replay a session's wire
// activity through the standard 3-state RRC machine
//
//   ACTIVE (data moving)  --inactivity-->  TAIL (DCH/short+long DRX, still
//   high power)  --demotion timer expires-->  IDLE (low power)
//
// and integrate power. Parameters are commonly measured LTE values
// (Huang et al., MobiSys'12 ballpark); they are inputs, not claims.
#pragma once

#include <vector>

#include "common/units.h"
#include "core/traffic_analyzer.h"

namespace vodx::core {

/// Inactivity before the radio may demote from the high-power tail: the
/// paper's "LTE RRC demotion timer".
inline constexpr Seconds kDemotionTimer = 11.0;
inline constexpr double kActiveWatts = 1.3;  ///< transmitting/receiving
inline constexpr double kTailWatts = 1.0;    ///< connected but idle (DRX tail)
inline constexpr double kIdleWatts = 0.02;   ///< RRC_IDLE paging

struct RadioEnergyReport {
  Seconds active_time = 0;
  Seconds tail_time = 0;
  Seconds idle_time = 0;
  double energy_joules = 0;

  /// Fraction of the session with the radio in a high-power state.
  double high_power_fraction() const {
    const Seconds total = active_time + tail_time + idle_time;
    return total > 0 ? (active_time + tail_time) / total : 0;
  }
};

/// Replays the session's transfer intervals through the RRC machine over
/// [0, session_end).
RadioEnergyReport radio_energy(const AnalyzedTraffic& traffic,
                               Seconds session_end);

}  // namespace vodx::core
