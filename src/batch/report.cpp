#include "batch/report.h"

#include <algorithm>

#include "common/json.h"
#include "common/strings.h"
#include "common/table.h"
#include "obs/export.h"

namespace vodx::batch {

namespace {

Rollup& rollup_for(std::vector<Rollup>& rollups, const std::string& key) {
  for (Rollup& rollup : rollups) {
    if (rollup.key == key) return rollup;
  }
  rollups.push_back(Rollup{key, 0, {}});
  return rollups.back();
}

void fold(Rollup& rollup, const obs::MetricsSnapshot& snapshot) {
  rollup.metrics.merge_from(snapshot);
  ++rollup.cells;
}

// --- Headline columns ------------------------------------------------------
//
// Rollup snapshots are generic bags of metrics; the per-dimension tables
// pull out the headline subset every instrumented session registers. A
// metric a dimension never saw renders as "-" (e.g. faults.injected on a
// fault-free sweep).

std::string counter_cell(const obs::MetricsSnapshot& snapshot,
                         const char* name) {
  const obs::MetricsSnapshot::Entry* entry = snapshot.find(name);
  if (entry == nullptr) return "-";
  return format("%lld", static_cast<long long>(entry->count));
}

std::string counter_mb_cell(const obs::MetricsSnapshot& snapshot,
                            const char* name) {
  const obs::MetricsSnapshot::Entry* entry = snapshot.find(name);
  if (entry == nullptr) return "-";
  return format("%.1f", static_cast<double>(entry->count) / 1e6);
}

std::string histogram_p50_cell(const obs::MetricsSnapshot& snapshot,
                               const char* name) {
  const obs::MetricsSnapshot::Entry* entry = snapshot.find(name);
  if (entry == nullptr || entry->count == 0) return "-";
  return format("%.2f", entry->p50);
}

const std::vector<std::string>& headline_header() {
  static const std::vector<std::string> header = {
      "key",       "cells",     "stalls",       "switches",
      "MB",        "wasted_MB", "fetch_fail",   "faults",
      "goodput_p50"};
  return header;
}

std::vector<std::string> headline_row(const Rollup& rollup) {
  const obs::MetricsSnapshot& m = rollup.metrics;
  return {rollup.key,
          std::to_string(rollup.cells),
          counter_cell(m, "session.stalls"),
          counter_cell(m, "session.switches"),
          counter_mb_cell(m, "session.total_bytes"),
          counter_mb_cell(m, "session.wasted_bytes"),
          counter_cell(m, "player.fetch_failures"),
          counter_cell(m, "faults.injected"),
          histogram_p50_cell(m, "tcp.goodput_mbps")};
}

struct Dimension {
  const char* title;
  const char* scope;  ///< JSONL "scope" value
  const std::vector<Rollup>* rollups;
};

std::vector<Dimension> dimensions(const SweepMetrics& metrics) {
  return {{"by service", "service", &metrics.by_service},
          {"by profile", "profile", &metrics.by_profile},
          {"by fault", "fault", &metrics.by_fault}};
}

Table dimension_table(const Dimension& dim) {
  Table table(headline_header());
  for (const Rollup& rollup : *dim.rollups) table.add_row(headline_row(rollup));
  return table;
}

}  // namespace

SweepMetrics aggregate_metrics(const SweepResult& result) {
  SweepMetrics out;
  out.overall.key = "overall";
  out.total_cells = static_cast<int>(result.cells.size());
  out.failed = result.failed;
  out.quarantined = result.quarantined;
  for (const CellResult& cell : result.cells) {
    if (cell.quarantined) {
      out.quarantined_cells.push_back(
          format("%s: %s", cell.coordinates().c_str(), cell.error.c_str()));
    }
    if (cell.trace_dropped > 0) {
      out.trace_dropped += cell.trace_dropped;
      out.dropped_cells.push_back(format(
          "%s: trace ring dropped %llu of %llu events",
          cell.coordinates().c_str(),
          static_cast<unsigned long long>(cell.trace_dropped),
          static_cast<unsigned long long>(cell.trace_emitted)));
    }
    if (!cell.has_metrics) continue;
    fold(out.overall, cell.metrics);
    fold(rollup_for(out.by_service, cell.service), cell.metrics);
    fold(rollup_for(out.by_profile, format("profile %d", cell.profile_id)),
         cell.metrics);
    fold(rollup_for(out.by_fault, cell.fault), cell.metrics);
  }
  return out;
}

Report sweep_report(const SweepMetrics& metrics) {
  // The quarantine clause and the two lists only appear when non-empty, so
  // clean reports stay byte-identical to the historical format
  // (golden-pinned).
  std::string failure_clause = format("%d failed", metrics.failed);
  if (metrics.quarantined > 0) {
    failure_clause += format(", %d quarantined", metrics.quarantined);
  }
  Report report;
  report.line(format("sweep metrics: %d cells (%s), %d merged",
                     metrics.total_cells, failure_clause.c_str(),
                     metrics.overall.cells));
  report.section("overall", obs::metrics_table(metrics.overall.metrics));
  if (!metrics.quarantined_cells.empty()) {
    std::vector<std::string> lines;
    for (const std::string& line : metrics.quarantined_cells) {
      lines.push_back("QUARANTINED " + line);
    }
    report.list("quarantined", std::move(lines));
  }
  if (!metrics.dropped_cells.empty()) {
    std::vector<std::string> lines;
    for (const std::string& line : metrics.dropped_cells) {
      lines.push_back("WARNING " + line +
                      " — trace-derived analyses are partial");
    }
    report.list("warnings", std::move(lines));
  }
  for (const Dimension& dim : dimensions(metrics)) {
    report.section(dim.title, dimension_table(dim));
  }
  return report;
}

std::string report_text(const SweepMetrics& metrics) {
  return sweep_report(metrics).text();
}

std::string report_jsonl(const SweepResult& result,
                         const SweepMetrics& metrics) {
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("scope").string("sweep");
  w.key("cells").raw(std::to_string(metrics.total_cells));
  w.key("failed").raw(std::to_string(metrics.failed));
  w.key("quarantined").raw(std::to_string(metrics.quarantined));
  w.key("merged").raw(std::to_string(metrics.overall.cells)).end_object();
  out += '\n';
  for (const CellResult& cell : result.cells) {
    w.begin_object().key("scope").string("cell");
    w.key("service").string(cell.service);
    w.key("profile").raw(std::to_string(cell.profile_id));
    w.key("seed").raw(std::to_string(cell.seed));
    w.key("fault").string(cell.fault).key("ok").boolean(cell.ok);
    if (cell.quarantined) w.key("quarantined").boolean(true);
    if (cell.trace_dropped > 0) {
      w.key("trace_dropped").raw(std::to_string(cell.trace_dropped));
    }
    if (cell.has_metrics) {
      w.key("snapshot").raw(obs::metrics_json(cell.metrics));
    }
    w.end_object();
    out += '\n';
  }
  auto rollup_line = [&](const char* scope, const Rollup& rollup) {
    w.begin_object().key("scope").string(scope).key("key").string(rollup.key);
    w.key("cells").raw(std::to_string(rollup.cells));
    w.key("snapshot").raw(obs::metrics_json(rollup.metrics)).end_object();
    out += '\n';
  };
  for (const Dimension& dim : dimensions(metrics)) {
    for (const Rollup& rollup : *dim.rollups) rollup_line(dim.scope, rollup);
  }
  rollup_line("overall", metrics.overall);
  return out;
}

std::string report_html(const SweepMetrics& metrics) {
  return sweep_report(metrics).html("vodx sweep report");
}

}  // namespace vodx::batch
