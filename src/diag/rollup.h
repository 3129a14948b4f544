// Sweep-level root-cause rollups.
//
// diagnose_sweep() runs a sweep with per-cell tracing enabled and folds each
// cell's Diagnosis into per-service / per-profile / per-fault root-cause
// tables. Folding happens in the sweep engine's post-join observe callback,
// which fires in grid order on one thread — so the rendered tables are
// byte-identical at `--jobs 1` and `--jobs N`, inheriting the sweep
// determinism contract (DESIGN.md §8, §12).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "batch/sweep.h"
#include "common/report.h"
#include "diag/diagnose.h"

namespace vodx::diag {

/// Root-cause totals accumulated over one rollup key (a service, a profile,
/// a fault scenario, "overall", or a population tower). A mergeable value
/// with the MetricsSnapshot contract: merge_from is associative and
/// commutative with the default-constructed value as identity, so rollups
/// folded per worker and merged in a fixed order are byte-identical at any
/// job count.
struct DiagRollup {
  std::string key;
  int cells = 0;

  Seconds problem_s = 0;  ///< startup + stall wall time
  Seconds stall_s = 0;
  Seconds startup_s = 0;
  double blamed_s[kCauseCount] = {};
  double stall_blamed_s[kCauseCount] = {};
  /// Sum of confidence × blamed seconds per cause (for weighted means).
  double conf_weight[kCauseCount] = {};
  std::uint64_t trace_dropped = 0;

  void fold(const Diagnosis& diagnosis);
  /// Adds `other`'s totals (the key is left as it is).
  void merge_from(const DiagRollup& other);
  /// Share of problem time charged to a non-unknown cause (1 when idle).
  double attributed_fraction() const;
  /// Same, restricted to stall time — the acceptance-gated number.
  double stall_attributed_fraction() const;
  /// Time-weighted mean confidence over all non-unknown blame.
  double mean_confidence() const;
};

struct SweepDiagnosis {
  SweepDiagnosis() { overall.key = "overall"; }

  int total_cells = 0;
  int failed = 0;  ///< cells that produced no diagnosis (session failed)

  DiagRollup overall;
  std::vector<DiagRollup> by_service;
  std::vector<DiagRollup> by_profile;
  std::vector<DiagRollup> by_fault;
};

/// Diagnoses one finished cell (reconstructing its FaultPlan from its
/// coordinates) and folds it into the rollups. Safe only from a sweep's
/// observe callback or other single-threaded grid-order context — this is
/// what diagnose_sweep() and `vodx report --diag` install there.
void fold_cell(SweepDiagnosis& out, const batch::CellResult& cell,
               const obs::Observer& observer);

/// Runs the grid with per-cell observers and diagnoses every successful
/// cell. The config's observe callback is overridden; each cell's FaultPlan
/// is reconstructed from its coordinates exactly as the sweep engine built
/// it, so blackout windows are available as evidence.
SweepDiagnosis diagnose_sweep(batch::SweepConfig config);

/// Summary line, a dropped-events warning when evidence was lost, the
/// overall root-cause table, then one table per rollup dimension.
/// Byte-stable across job counts.
Report diag_report(const SweepDiagnosis& diagnosis);

/// One row per cause: name, the short label the tables use as a column
/// header, and what the cause means. The HTML pages append it as a legend.
Table cause_taxonomy();

/// diag_report as terminal text.
std::string diag_text(const SweepDiagnosis& diagnosis);

/// One JSON object per rollup key, grid order, byte-stable.
std::string diag_jsonl(const SweepDiagnosis& diagnosis);

/// diag_report plus the cause taxonomy as a standalone HTML page.
std::string diag_html(const SweepDiagnosis& diagnosis);

}  // namespace vodx::diag
