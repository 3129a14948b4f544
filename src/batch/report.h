// Cross-run metric aggregation and report rendering.
//
// A sweep run with SweepConfig::collect_metrics leaves one MetricsSnapshot
// per cell; aggregate_metrics folds them — in grid order, so the result is
// byte-identical at any --jobs — into an overall rollup plus per-service,
// per-profile and per-fault-scenario rollups (keys in first-appearance grid
// order). sweep_report() lays that out as one Report, which renders as the
// terminal text and the single-file HTML summary; report_jsonl() is the
// machine-readable form (per-cell lines included).
#pragma once

#include <string>
#include <vector>

#include "batch/sweep.h"
#include "common/report.h"

namespace vodx::batch {

/// One aggregation bucket: every merged cell shares `key`.
struct Rollup {
  std::string key;
  int cells = 0;  ///< successful cells folded into `metrics`
  obs::MetricsSnapshot metrics;
};

struct SweepMetrics {
  int total_cells = 0;
  int failed = 0;
  int quarantined = 0;  ///< subset of failed: wall-budget quarantines
  /// "(<coords>): <error>" per quarantined cell, grid order — rendered as
  /// explicit QUARANTINED rows so a quarantine is never silently dropped.
  std::vector<std::string> quarantined_cells;
  /// Total trace-ring drops across all cells, plus one formatted line per
  /// affected cell (grid order). Non-empty means some cells' event windows
  /// were truncated, so trace-derived analyses (diag) saw partial evidence;
  /// the text/HTML reports render these as explicit WARNING rows.
  std::uint64_t trace_dropped = 0;
  std::vector<std::string> dropped_cells;
  Rollup overall;                  ///< key "overall"
  std::vector<Rollup> by_service;  ///< spec name, grid order
  std::vector<Rollup> by_profile;  ///< "profile <id>", grid order
  std::vector<Rollup> by_fault;    ///< scenario name, grid order
};

/// Folds every successful cell's snapshot in grid order. Cells without
/// metrics (collect_metrics off, or failed cells) are skipped but still
/// counted in total_cells/failed.
SweepMetrics aggregate_metrics(const SweepResult& result);

/// Header line, the overall metrics table, the QUARANTINED and WARNING
/// lists (only when non-empty), then one headline table per rollup
/// dimension.
Report sweep_report(const SweepMetrics& metrics);

/// sweep_report as terminal text. Byte-stable for identical sweeps.
std::string report_text(const SweepMetrics& metrics);

/// One JSON object per line: a sweep header, each cell's snapshot
/// ({"scope":"cell",...}), then each rollup ({"scope":"service",...} /
/// "profile" / "fault" / "overall"). Byte-stable.
std::string report_jsonl(const SweepResult& result,
                         const SweepMetrics& metrics);

/// sweep_report as a self-contained HTML page (inline CSS, no external
/// assets).
std::string report_html(const SweepMetrics& metrics);

}  // namespace vodx::batch
