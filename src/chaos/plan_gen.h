// Seeded random FaultPlan generation — the fuzzing half of vodx::chaos.
//
// scenario_catalog() covers the canonical pathologies one at a time; a fuzz
// campaign needs *combinations* nobody scripted: a reset storm inside a
// blackout while the manifest path is being rejected. generate_plan draws a
// whole plan (fault count, kinds, URL/time windows, intensities) from a
// splitmix64 stream keyed on the seed alone, so "seed 17 broke the player"
// is a complete, shareable bug report — any machine regenerates the exact
// plan from the number.
#pragma once

#include <cstdint>

#include "faults/fault_plan.h"

namespace vodx::chaos {

// Bounds for the generator, sized for a 120-second session. They
// deliberately include the nasty corners (zero-length windows, 100%
// probabilities, sub-second blackouts back to back).
inline constexpr int kMinFaults = 1;  ///< total faults per plan, inclusive
inline constexpr int kMaxFaults = 5;
inline constexpr Seconds kMaxLatency = 3.0;  ///< LatencyFault base+jitter cap
inline constexpr Seconds kMaxBlackout = 20;  ///< BlackoutFault duration cap
inline constexpr double kMinProbability = 0.05;
inline constexpr double kMaxProbability = 1.0;

struct GenOptions {
  Seconds horizon = 120;  ///< time windows are drawn inside [0, horizon)
  /// Adds origin-targeted kinds (cache flushes, DC blackout windows) to the
  /// draw. Off by default: enabling it widens the kind die, so plans for a
  /// given seed differ from the origin-free stream — existing campaign seeds
  /// stay byte-identical unless a run opts in.
  bool origin_faults = false;
};

/// Deterministically expands `seed` into a FaultPlan within the bounds
/// above and `options`. Pure: same (seed, options) -> byte-identical plan,
/// on any machine, at any --jobs.
faults::FaultPlan generate_plan(std::uint64_t seed,
                                const GenOptions& options = {});

/// "2 resets, 1 latency, 1 blackout" — stable human summary of a plan's
/// composition for chaos report rows.
std::string plan_summary(const faults::FaultPlan& plan);

}  // namespace vodx::chaos
