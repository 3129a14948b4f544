// Differential old-vs-new simulator-core harness.
//
// The event-driven core (net::SimCore::kEvent) must be observably identical
// to the retained fixed-tick reference (kFixedTickReference) — that is the
// whole determinism contract of the tick-skipping optimisation (DESIGN.md
// §13). This harness runs the same (service × profile × seed × fault
// scenario) grid through batch::run_sweep once per core and compares every
// cell field-by-field: SessionResult scalars, both QoE reports (methodology
// and ground truth), player events, fault stats and the full metrics
// snapshot. Numeric fields must agree within 1e-9; counts and strings must
// be exactly equal. On top of the structured comparison the serialized
// sweep outputs (CSV + JSONL) are compared byte-for-byte.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "batch/sweep.h"
#include "common/strings.h"
#include "core/qoe.h"
#include "faults/fault_plan.h"

namespace vodx::testing {

/// The grid both cores sweep. Defaults keep a single cell; tests widen the
/// axes they care about.
struct DifferentialGrid {
  std::vector<std::string> services;        ///< catalog names
  std::vector<int> profiles = {7};          ///< 1-based Fig. 3 profile ids
  std::vector<std::uint64_t> seeds = {0};
  std::vector<std::string> fault_scenarios = {"none"};
  Seconds duration = 60;  ///< content == session duration
  int jobs = 2;
  /// Play faults::hardened players (fetch timeouts, jittered retries,
  /// abandon-and-downswitch), as `vodx faults --hardened` does.
  bool hardened = false;
};

struct DifferentialResult {
  batch::SweepResult event;  ///< the kEvent sweep
  batch::SweepResult fixed;  ///< the kFixedTickReference sweep
  std::vector<std::string> mismatches;

  bool ok() const { return mismatches.empty(); }

  /// All mismatches, one per line (empty string when ok).
  std::string summary() const {
    std::string out;
    for (const std::string& m : mismatches) {
      out += m;
      out += '\n';
    }
    return out;
  }
};

namespace detail {

inline void diff_num(std::vector<std::string>& out, const std::string& where,
                     const char* field, double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return;
  if (std::abs(a - b) <= 1e-9) return;
  out.push_back(format("%s: %s differs — event=%.12g fixed=%.12g",
                       where.c_str(), field, a, b));
}

inline void diff_int(std::vector<std::string>& out, const std::string& where,
                     const char* field, std::int64_t a, std::int64_t b) {
  if (a == b) return;
  out.push_back(format("%s: %s differs — event=%lld fixed=%lld",
                       where.c_str(), field, static_cast<long long>(a),
                       static_cast<long long>(b)));
}

inline void diff_text(std::vector<std::string>& out, const std::string& where,
                      const char* field, const std::string& a,
                      const std::string& b) {
  if (a == b) return;
  out.push_back(format("%s: %s differs — event=\"%s\" fixed=\"%s\"",
                       where.c_str(), field, a.c_str(), b.c_str()));
}

inline void diff_qoe(std::vector<std::string>& out, const std::string& where,
                     const core::QoeReport& a, const core::QoeReport& b) {
  diff_num(out, where, "startup_delay", a.startup_delay, b.startup_delay);
  diff_num(out, where, "total_stall", a.total_stall, b.total_stall);
  diff_int(out, where, "stall_count", a.stall_count, b.stall_count);
  diff_num(out, where, "average_declared_bitrate", a.average_declared_bitrate,
           b.average_declared_bitrate);
  diff_num(out, where, "displayed_time", a.displayed_time, b.displayed_time);
  diff_num(out, where, "low_quality_fraction", a.low_quality_fraction,
           b.low_quality_fraction);
  diff_int(out, where, "switch_count", a.switch_count, b.switch_count);
  diff_int(out, where, "nonconsecutive_switch_count",
           a.nonconsecutive_switch_count, b.nonconsecutive_switch_count);
  diff_num(out, where, "media_bytes", a.media_bytes, b.media_bytes);
  diff_num(out, where, "total_bytes", a.total_bytes, b.total_bytes);
  diff_num(out, where, "wasted_bytes", a.wasted_bytes, b.wasted_bytes);
  diff_int(out, where, "displayed.size",
           static_cast<std::int64_t>(a.displayed.size()),
           static_cast<std::int64_t>(b.displayed.size()));
  diff_int(out, where, "time_by_height.size",
           static_cast<std::int64_t>(a.time_by_height.size()),
           static_cast<std::int64_t>(b.time_by_height.size()));
  if (a.time_by_height.size() == b.time_by_height.size()) {
    auto ia = a.time_by_height.begin();
    auto ib = b.time_by_height.begin();
    for (; ia != a.time_by_height.end(); ++ia, ++ib) {
      diff_int(out, where, "time_by_height.key", ia->first, ib->first);
      diff_num(out, where, "time_by_height.value", ia->second, ib->second);
    }
  }
}

inline void diff_metrics(std::vector<std::string>& out,
                         const std::string& where,
                         const obs::MetricsSnapshot& a,
                         const obs::MetricsSnapshot& b) {
  diff_int(out, where, "metrics.entries",
           static_cast<std::int64_t>(a.entries.size()),
           static_cast<std::int64_t>(b.entries.size()));
  if (a.entries.size() != b.entries.size()) return;
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const obs::MetricsSnapshot::Entry& ea = a.entries[i];
    const obs::MetricsSnapshot::Entry& eb = b.entries[i];
    const std::string at = where + " metric " + ea.name;
    diff_text(out, at, "name", ea.name, eb.name);
    diff_int(out, at, "type", static_cast<std::int64_t>(ea.type),
             static_cast<std::int64_t>(eb.type));
    diff_int(out, at, "count", ea.count, eb.count);
    diff_num(out, at, "value", ea.value, eb.value);
    diff_num(out, at, "min", ea.min, eb.min);
    diff_num(out, at, "mean", ea.mean, eb.mean);
    diff_num(out, at, "max", ea.max, eb.max);
    diff_int(out, at, "buckets.size",
             static_cast<std::int64_t>(ea.buckets.size()),
             static_cast<std::int64_t>(eb.buckets.size()));
    if (ea.buckets.size() == eb.buckets.size()) {
      for (std::size_t k = 0; k < ea.buckets.size(); ++k) {
        diff_int(out, at, "bucket", ea.buckets[k], eb.buckets[k]);
      }
    }
  }
}

inline void diff_cell(std::vector<std::string>& out,
                      const batch::CellResult& a, const batch::CellResult& b) {
  const std::string where = a.coordinates();
  diff_text(out, where, "service", a.service, b.service);
  diff_int(out, where, "profile_id", a.profile_id, b.profile_id);
  diff_text(out, where, "fault", a.fault, b.fault);
  diff_int(out, where, "ok", a.ok, b.ok);
  diff_text(out, where, "error", a.error, b.error);
  diff_int(out, where, "quarantined", a.quarantined, b.quarantined);
  if (!a.ok || !b.ok) return;

  const core::SessionResult& ra = a.result;
  const core::SessionResult& rb = b.result;
  diff_num(out, where, "session_end", ra.session_end, rb.session_end);
  diff_int(out, where, "final_state",
           static_cast<std::int64_t>(ra.final_state),
           static_cast<std::int64_t>(rb.final_state));
  diff_num(out, where, "final_position", ra.final_position,
           rb.final_position);
  diff_int(out, where, "events.stalls",
           static_cast<std::int64_t>(ra.events.stalls.size()),
           static_cast<std::int64_t>(rb.events.stalls.size()));
  diff_int(out, where, "events.displayed",
           static_cast<std::int64_t>(ra.events.displayed.size()),
           static_cast<std::int64_t>(rb.events.displayed.size()));
  diff_num(out, where, "events.startup_delay", ra.events.startup_delay(),
           rb.events.startup_delay());
  diff_int(out, where, "traffic.downloads",
           static_cast<std::int64_t>(ra.traffic.downloads.size()),
           static_cast<std::int64_t>(rb.traffic.downloads.size()));
  diff_num(out, where, "traffic.total_payload_bytes",
           ra.traffic.total_payload_bytes, rb.traffic.total_payload_bytes);
  diff_int(out, where, "buffer.samples",
           static_cast<std::int64_t>(ra.buffer.size()),
           static_cast<std::int64_t>(rb.buffer.size()));
  diff_int(out, where, "faults.rejected", ra.faults.rejected,
           rb.faults.rejected);
  diff_int(out, where, "faults.errors", ra.faults.errors, rb.faults.errors);
  diff_int(out, where, "faults.resets", ra.faults.resets, rb.faults.resets);
  diff_int(out, where, "faults.delayed", ra.faults.delayed,
           rb.faults.delayed);
  diff_qoe(out, where + " qoe", ra.qoe, rb.qoe);
  diff_qoe(out, where + " ground_truth", ra.ground_truth, rb.ground_truth);

  diff_int(out, where, "has_metrics", a.has_metrics, b.has_metrics);
  if (a.has_metrics && b.has_metrics) {
    diff_metrics(out, where, a.metrics, b.metrics);
  }
  diff_int(out, where, "trace_emitted",
           static_cast<std::int64_t>(a.trace_emitted),
           static_cast<std::int64_t>(b.trace_emitted));
  diff_int(out, where, "trace_dropped",
           static_cast<std::int64_t>(a.trace_dropped),
           static_cast<std::int64_t>(b.trace_dropped));
}

}  // namespace detail

/// Sweeps `grid` through both cores and compares. The two sweeps share
/// every config knob except SweepConfig::sim_core.
inline DifferentialResult run_differential(const DifferentialGrid& grid) {
  batch::SweepConfig config;
  for (const std::string& name : grid.services) {
    config.services.push_back(services::service(name));
    if (grid.hardened) {
      config.services.back().player = faults::hardened(
          config.services.back().player, config.services.size());
    }
  }
  config.profiles = grid.profiles;
  config.seeds = grid.seeds;
  config.fault_scenarios = grid.fault_scenarios;
  config.session_duration = grid.duration;
  config.content_duration = grid.duration;
  config.jobs = grid.jobs;
  config.collect_metrics = true;

  DifferentialResult out;
  config.sim_core = net::SimCore::kEvent;
  out.event = batch::run_sweep(config);
  config.sim_core = net::SimCore::kFixedTickReference;
  out.fixed = batch::run_sweep(config);

  if (out.event.cells.size() != out.fixed.cells.size()) {
    out.mismatches.push_back(
        format("grid size differs — event=%zu fixed=%zu",
               out.event.cells.size(), out.fixed.cells.size()));
    return out;
  }
  for (std::size_t i = 0; i < out.event.cells.size(); ++i) {
    detail::diff_cell(out.mismatches, out.event.cells[i],
                      out.fixed.cells[i]);
  }
  // Byte-level check of the serialized outputs (don't echo whole documents
  // into the mismatch list — just where they diverge).
  const auto diff_bytes = [&](const char* what, const std::string& a,
                              const std::string& b) {
    if (a == b) return;
    std::size_t at = 0;
    while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
    out.mismatches.push_back(format(
        "serialized %s differs at byte %zu (event %zu bytes, fixed %zu)",
        what, at, a.size(), b.size()));
  };
  diff_bytes("sweep_csv", batch::sweep_csv(out.event),
             batch::sweep_csv(out.fixed));
  diff_bytes("sweep_jsonl", batch::sweep_jsonl(out.event),
             batch::sweep_jsonl(out.fixed));
  return out;
}

}  // namespace vodx::testing
