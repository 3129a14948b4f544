// Delta-debugging fault-plan minimizer.
//
// When a fuzzed plan violates an invariant, the raw plan is a poor bug
// report: five overlapping faults, most of them irrelevant. minimize()
// shrinks the plan against an oracle ("does this candidate still violate?")
// in three deterministic phases:
//
//   1. drop    greedy ddmin-style passes removing whole faults, repeated to
//              a fixpoint — typically leaves the 1-2 faults that matter
//   2. narrow  per surviving fault, binary-search the time window tighter
//              (later start, earlier end) while the violation persists
//   3. soften  per surviving fault, halve intensities (probability, latency,
//              blackout duration, reset fraction) toward a floor while the
//              violation persists
//
// Every candidate the oracle accepts becomes the new best plan, so the
// result is always a plan the oracle confirmed. The oracle runs a full
// session per candidate; the run budget bounds total work.
#pragma once

#include <functional>

#include "faults/fault_plan.h"

namespace vodx::chaos {

/// Oracle-call budget across all phases.
inline constexpr int kMinimizeRuns = 64;

struct MinimizeResult {
  faults::FaultPlan plan;  ///< smallest confirmed-failing plan found
  int runs = 0;            ///< oracle calls spent
  int dropped = 0;         ///< faults removed by phase 1
};

/// Total number of faults across all kinds (the size ddmin shrinks).
std::size_t fault_count(const faults::FaultPlan& plan);

/// Shrinks `plan` against `still_fails` (true = the candidate still
/// triggers the violation being chased). `plan` itself must fail the
/// oracle; the caller has already established that — minimize() does not
/// re-verify it.
MinimizeResult minimize(const faults::FaultPlan& plan,
                        const std::function<bool(const faults::FaultPlan&)>&
                            still_fails);

}  // namespace vodx::chaos
