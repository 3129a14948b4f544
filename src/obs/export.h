// Exporters: turn a TraceSink / MetricsSnapshot into files people can open.
//
//  * JSONL       — one JSON object per event, grep/jq-friendly.
//  * Chrome JSON — the trace_event format; a session opens in
//                  chrome://tracing or https://ui.perfetto.dev with one
//                  timeline per registered track (player, each TCP
//                  connection, the link) and counter series for buffer
//                  occupancy, cwnd and link capacity.
//  * Table       — the metrics summary via common/table, for terminals.
#pragma once

#include <ostream>
#include <string>

#include "common/json.h"
#include "common/table.h"
#include "obs/metrics.h"
#include "obs/trace_sink.h"

namespace vodx::obs {

/// One event per line: {"t":..,"seq":..,"cat":..,"kind":..,"name":..,
/// "track":..,<fields>}. Ends with a summary line
/// {"kind":"summary","name":"obs.dropped",...} carrying the sink's
/// emitted/dropped/retained counts, so ring overflow is visible in this
/// format too (not just the Chrome exporter's metadata).
void write_jsonl(const TraceSink& sink, std::ostream& out);

/// Chrome trace_event JSON ({"traceEvents":[...]}). Timestamps are sim time
/// in microseconds; tracks become named threads of one "vodx session"
/// process. Includes a final metadata comment with dropped-event counts.
void write_chrome_trace(const TraceSink& sink, std::ostream& out);

/// Renders a snapshot as a summary table: counters as totals, gauges as
/// values, histograms as count/mean/p50/p90/p99/max.
Table metrics_table(const MetricsSnapshot& snapshot);

/// metrics_table plus a sim-time header, rendered to a string.
std::string metrics_report(const MetricsSnapshot& snapshot);

/// Canonical single-line JSON rendering of a snapshot:
/// {"sim_time":..,"metrics":{"<name>":{"type":..,...},...}} in entry order.
/// Byte-stable for identical snapshots — the merge/determinism tests and
/// the sweep report JSONL compare and embed exactly this string.
std::string metrics_json(const MetricsSnapshot& snapshot);

/// The one escaper lives in common/json; exporters spell it obs::json_escape.
using vodx::json_escape;

}  // namespace vodx::obs
