// Span-instrumented replay of one session through the public pieces.
//
// The replay rebuilds exactly what core::run_session builds — a private
// net::Simulator and net::Link (with fault blackouts carved out of the
// trace), a core::HostedSession — and runs it, keeping a span around each
// call. Probes then re-run the setup and finish stages one piece at a time
// (make_asset, make_origin, manifest parse, analyze_traffic, infer_buffer,
// compute_qoe) so their cost can be split out. Probes sit outside the
// session span and do not count toward its time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "chaos/invariants.h"
#include "harness/common.h"
#include "core/session.h"
#include "obs/metrics.h"
#include "support/spans.h"

namespace vodxbench {

/// The exact work counters compared count for count between a workload's
/// own sessions and their replays (absent counters read 0).
extern const char* const kWorkCounters[];
extern const std::size_t kWorkCounterCount;

using Counters = std::map<std::string, std::int64_t>;
Counters work_counters(const vodx::obs::MetricsSnapshot& snapshot);

struct Replayed {
  vodx::core::SessionResult result;
  vodx::obs::MetricsSnapshot metrics;
  vodx::chaos::InvariantReport invariants;  ///< only when check was asked
  std::uint64_t ticks_covered = 0;
  std::uint64_t ticks_executed = 0;
  double delivered_mb = 0;
  bool probes_agree = true;  ///< re-run finish stages equal finish()'s
};

struct ReplayOptions {
  bool trace_enabled = false;  ///< the observer's event ring
  bool check_invariants = false;
};

/// Replays one session: `build` (run inside a "config" span) returns the
/// SessionConfig; everything after it is timed under a "session" root span.
Replayed replay_session(
    SpanRecorder& spans, int session_id,
    const std::function<vodx::core::SessionConfig()>& build,
    const ReplayOptions& options);

/// What a replay must reproduce: the QoE CSV row plus the ground truth.
std::string session_fingerprint(const vodx::core::SessionResult& result);

/// Replay totals, folded one session at a time.
struct ReplayTotals {
  int sessions = 0;
  int matched = 0;  ///< fingerprint, work counters and invariants agree
  bool probes_agree = true;
  std::uint64_t ticks_covered = 0;
  std::uint64_t ticks_executed = 0;
  double delivered_mb = 0;
  double sim_s = 0;

  void add(const Replayed& replayed, bool match);
};

/// The per-layer metrics the replay spans give: per-session means of each
/// layer's span, tick counts, coverage, and replay agreement.
void add_replay_metrics(const SpanRecorder& spans, const ReplayTotals& totals,
                        RunResult& result);

/// Sums of the exact work counters over a workload's sessions as per-layer
/// metrics (plus origin.cache_hit_ratio from hits and misses).
void add_counter_metrics(const Counters& totals, RunResult& result);

/// Probe: fetches the entry manifest (and HLS media playlists) from a fresh
/// origin for `config` and parses them with the public parsers, under a
/// "manifest.parse" span.
void probe_manifests(SpanRecorder& spans, int session_id,
                    const vodx::core::SessionConfig& config);

}  // namespace vodxbench
