#include "batch/report.h"

#include <algorithm>

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

std::string report_text(const SweepMetrics& metrics) {
  // The quarantine clause only appears when non-zero, so quarantine-free
  // reports stay byte-identical to the historical format (golden-pinned).
  std::string failure_clause = format("%d failed", metrics.failed);
  if (metrics.quarantined > 0) {
    failure_clause += format(", %d quarantined", metrics.quarantined);
  }
  std::string out = format(
      "sweep metrics: %d cells (%s), %d merged\n\n== overall ==\n",
      metrics.total_cells, failure_clause.c_str(), metrics.overall.cells);
  out += obs::metrics_table(metrics.overall.metrics).render();
  if (!metrics.quarantined_cells.empty()) {
    out += "\n== quarantined ==\n";
    for (const std::string& line : metrics.quarantined_cells) {
      out += format("QUARANTINED %s\n", line.c_str());
    }
  }
  // Like the quarantine section: only rendered when something was actually
  // dropped, so clean sweeps keep the golden-pinned byte layout.
  if (!metrics.dropped_cells.empty()) {
    out += "\n== warnings ==\n";
    for (const std::string& line : metrics.dropped_cells) {
      out += format("WARNING %s — trace-derived analyses are partial\n",
                    line.c_str());
    }
  }
  for (const Dimension& dim : dimensions(metrics)) {
    out += format("\n== %s ==\n", dim.title);
    out += dimension_table(dim).render();
  }
  return out;
}

std::string report_jsonl(const SweepResult& result,
                         const SweepMetrics& metrics) {
  std::string out =
      format("{\"scope\":\"sweep\",\"cells\":%d,\"failed\":%d,"
             "\"quarantined\":%d,\"merged\":%d}\n",
             metrics.total_cells, metrics.failed, metrics.quarantined,
             metrics.overall.cells);
  for (const CellResult& cell : result.cells) {
    out += format(
        "{\"scope\":\"cell\",\"service\":\"%s\",\"profile\":%d,"
        "\"seed\":%llu,\"fault\":\"%s\",\"ok\":%s",
        obs::json_escape(cell.service).c_str(), cell.profile_id,
        static_cast<unsigned long long>(cell.seed),
        obs::json_escape(cell.fault).c_str(), cell.ok ? "true" : "false");
    if (cell.quarantined) out += ",\"quarantined\":true";
    if (cell.trace_dropped > 0) {
      out += format(",\"trace_dropped\":%llu",
                    static_cast<unsigned long long>(cell.trace_dropped));
    }
    if (cell.has_metrics) {
      out += ",\"snapshot\":" + obs::metrics_json(cell.metrics);
    }
    out += "}\n";
  }
  for (const Dimension& dim : dimensions(metrics)) {
    for (const Rollup& rollup : *dim.rollups) {
      out += format("{\"scope\":\"%s\",\"key\":\"%s\",\"cells\":%d,"
                    "\"snapshot\":",
                    dim.scope, obs::json_escape(rollup.key).c_str(),
                    rollup.cells);
      out += obs::metrics_json(rollup.metrics);
      out += "}\n";
    }
  }
  out += format("{\"scope\":\"overall\",\"key\":\"overall\",\"cells\":%d,"
                "\"snapshot\":",
                metrics.overall.cells);
  out += obs::metrics_json(metrics.overall.metrics);
  out += "}\n";
  return out;
}

std::string report_html(const SweepMetrics& metrics,
                        std::string_view extra_body) {
  std::string out = html_page_start("vodx sweep report");
  out += format("<p>%d cells (%d failed, %d quarantined), %d merged into "
                "the rollups below.</p>\n",
                metrics.total_cells, metrics.failed, metrics.quarantined,
                metrics.overall.cells);
  if (!metrics.quarantined_cells.empty()) {
    out += "<h2>quarantined</h2>\n<ul>\n";
    for (const std::string& line : metrics.quarantined_cells) {
      out += "<li>QUARANTINED " + html_escape(line) + "</li>\n";
    }
    out += "</ul>\n";
  }
  if (!metrics.dropped_cells.empty()) {
    out += "<h2>warnings</h2>\n<ul>\n";
    for (const std::string& line : metrics.dropped_cells) {
      out += "<li>WARNING " + html_escape(line) +
             " — trace-derived analyses are partial</li>\n";
    }
    out += "</ul>\n";
  }
  out += "<h2>overall</h2>\n";
  out += obs::metrics_table(metrics.overall.metrics).html();
  for (const Dimension& dim : dimensions(metrics)) {
    out += format("<h2>%s</h2>\n", dim.title);
    out += dimension_table(dim).html();
  }
  out += extra_body;
  out += "</body></html>\n";
  return out;
}

}  // namespace vodx::batch
