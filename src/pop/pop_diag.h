// Root-cause attribution folded to population scale.
//
// vodx::diag diagnoses one finished session from its event trace; this
// module runs it across a population run's sessions and folds the result
// into mergeable per-tower rollups. Two population-specific wrinkles:
//
//   * Per-session observers on a shared tower link never see the link's
//     capacity counters (the link has one observer, the sessions have
//     their own), so the capacity evidence diag needs is synthesised from
//     the tower timeline instead: each bin's trace capacity divided by its
//     concurrent-session count is that bin's max-min fair share. The tower
//     builds this step series once and hands it to diag::diagnose beside
//     each session's trace ring, which diag reads in place.
//   * A diagnosed session's observer records only the evidence diag reads
//     (kDiagEvidenceMask), so diagnosis adds no link wake-ups to the tower.
//   * Diagnosed sessions need the analyzed wire log, so they run
//     finish_traffic() (finish_light leaves result.traffic empty, which
//     would blind the deficit/ABR rules); diagnosis is bounded by a
//     per-tower session budget.
//
// Towers fold their diagnoses into a diag::DiagRollup, which merges
// post-join in tower order like every other fold, so the rollup is
// byte-identical at any --jobs.
#pragma once

#include <vector>

#include "diag/diagnose.h"
#include "obs/event.h"
#include "obs/timeline.h"

namespace vodx::pop {

/// What a diagnosed session's observer records: the categories diag reads
/// (tcp transfers, restarts and handshakes; faults; link; origin). Every
/// other emission site stays on its null-observer fast path. The mask
/// leaves out obs::kTcpCwndSeries: diag never reads the per-RTT cwnd
/// samples, and each one would wake the tower's shared link.
constexpr std::uint32_t kDiagEvidenceMask =
    obs::bit(obs::Category::kTcp) | obs::bit(obs::Category::kFault) |
    obs::bit(obs::Category::kLink) | obs::bit(obs::Category::kOrigin);

/// The tower's per-bin max-min fair share as a capacity step series: one
/// step per bin at the bin start, value = bin capacity (Mbps) /
/// max(1, concurrent sessions in the bin). Empty when the timeline lacks
/// the capacity or concurrent series.
std::vector<diag::Step> fair_share_capacity(const obs::Timeline& timeline);

/// Spreads every blame span over the timeline's blame_* series by overlap:
/// each bin gains the seconds of the span that fall inside it.
void fold_blame_bins(obs::Timeline& timeline,
                     const diag::Diagnosis& diagnosis);

}  // namespace vodx::pop
