// Cross-run metric aggregation and report rendering.
//
// A sweep run with SweepConfig::collect_metrics leaves one MetricsSnapshot
// per cell; aggregate_metrics folds them — in grid order, so the result is
// byte-identical at any --jobs — into an overall rollup plus per-service,
// per-profile and per-fault-scenario rollups (keys in first-appearance grid
// order). The renderers turn that into the three shapes people actually
// consume: a terminal text report, machine-readable JSONL (per-cell lines
// included), and a single-file HTML summary.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "batch/sweep.h"

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

/// Terminal report: header, the overall metrics table, then one headline
/// table per rollup dimension. Byte-stable for identical sweeps.
std::string report_text(const SweepMetrics& metrics);

/// One JSON object per line: a sweep header, each cell's snapshot
/// ({"scope":"cell",...}), then each rollup ({"scope":"service",...} /
/// "profile" / "fault" / "overall"). Byte-stable.
std::string report_jsonl(const SweepResult& result,
                         const SweepMetrics& metrics);

/// Self-contained HTML page (inline CSS, no external assets) with the same
/// content as report_text, as real tables. `extra_body` (e.g. a diag HTML
/// section) goes after the rollups, before the closing tags.
std::string report_html(const SweepMetrics& metrics,
                        std::string_view extra_body = {});

}  // namespace vodx::batch
