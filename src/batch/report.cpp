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
// metric a dimension never saw has no value, rendered "-" (e.g.
// faults.injected on a fault-free sweep).

std::optional<std::int64_t> counter(const obs::MetricsSnapshot& snapshot,
                                    const char* name) {
  const obs::MetricsSnapshot::Entry* entry = snapshot.find(name);
  if (entry == nullptr) return std::nullopt;
  return entry->count;
}

std::optional<double> counter_mb(const obs::MetricsSnapshot& snapshot,
                                 const char* name) {
  const std::optional<std::int64_t> bytes = counter(snapshot, name);
  if (!bytes) return std::nullopt;
  return static_cast<double>(*bytes) / 1e6;
}

std::optional<double> histogram_p50(const obs::MetricsSnapshot& snapshot,
                                    const char* name) {
  const obs::MetricsSnapshot::Entry* entry = snapshot.find(name);
  if (entry == nullptr || entry->count == 0) return std::nullopt;
  return entry->p50;
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
  Table table({"key"});
  for (const char* name : {"cells", "stalls", "switches"}) {
    table.add_column(name, Format::integer());
  }
  table.add_column("MB", Format::fixed(1));
  table.add_column("wasted_MB", Format::fixed(1));
  table.add_column("fetch_fail", Format::integer());
  table.add_column("faults", Format::integer());
  table.add_column("goodput_p50", Format::fixed(2));
  for (const Rollup& rollup : *dim.rollups) {
    const obs::MetricsSnapshot& m = rollup.metrics;
    table.add_row(rollup.key, rollup.cells,
                   counter(m, "session.stalls"),
                   counter(m, "session.switches"),
                   counter_mb(m, "session.total_bytes"),
                   counter_mb(m, "session.wasted_bytes"),
                   counter(m, "player.fetch_failures"),
                   counter(m, "faults.injected"),
                   histogram_p50(m, "tcp.goodput_mbps"));
  }
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
  w.key("cells").integer(metrics.total_cells);
  w.key("failed").integer(metrics.failed);
  w.key("quarantined").integer(metrics.quarantined);
  w.key("merged").integer(metrics.overall.cells).end_object();
  out += '\n';
  for (const CellResult& cell : result.cells) {
    w.begin_object().key("scope").string("cell");
    w.key("service").string(cell.service);
    w.key("profile").integer(cell.profile_id);
    w.key("seed").integer(cell.seed);
    w.key("fault").string(cell.fault).key("ok").boolean(cell.ok);
    if (cell.quarantined) w.key("quarantined").boolean(true);
    if (cell.trace_dropped > 0) {
      w.key("trace_dropped").integer(cell.trace_dropped);
    }
    if (cell.has_metrics) obs::write_metrics(w.key("snapshot"), cell.metrics);
    w.end_object();
    out += '\n';
  }
  auto rollup_line = [&](const char* scope, const Rollup& rollup) {
    w.begin_object().key("scope").string(scope).key("key").string(rollup.key);
    w.key("cells").integer(rollup.cells);
    obs::write_metrics(w.key("snapshot"), rollup.metrics);
    w.end_object();
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
