// The chaos engine: invariant-checked fault fuzzing with minimized repros.
//
// One chaos cell = one fuzz seed. The seed alone determines everything the
// cell does: which service and cellular profile it streams (drawn from the
// configured pools), the bandwidth-trace and content seeds, and the whole
// generated FaultPlan. Cells run under watchdogs (wall-clock budget +
// per-instant event bound) and every finished session is evaluated against
// the full invariant catalog (invariants.h). A violating cell is shrunk by
// the delta-debugging minimizer (minimize.h) and emitted as a
// self-contained ReproArtifact (repro.h) that `vodx chaos --repro` replays.
//
// Determinism contract (same as batch::run_sweep): rows are keyed by seed
// index, every seed is a pure function of its coordinates, and the report
// text contains no wall-clock data — `--jobs 1/2/8` produce byte-identical
// reports. The wall-clock watchdog can only *abort* a run that would
// otherwise hang; it never alters a run that finishes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "chaos/minimize.h"
#include "chaos/plan_gen.h"
#include "chaos/repro.h"
#include "core/session.h"

namespace vodx::chaos {

/// Test-only hook appended after the catalog checks; lets tests inject
/// synthetic violations (e.g. "fail iff the plan carries a reset AND a
/// latency fault") to exercise the detect -> minimize -> repro pipeline
/// without planting a real bug.
using TestHook = std::function<void(const core::SessionConfig&,
                                    const core::SessionResult&,
                                    const obs::Observer&, InvariantReport&)>;

/// One session run under watchdogs + invariant checking.
struct CheckedRun {
  bool watchdog = false;        ///< aborted by a watchdog (result invalid)
  std::string watchdog_detail;  ///< the WatchdogError message
  core::SessionResult result;   ///< valid only when !watchdog
  InvariantReport report;       ///< empty catalog pass when watchdog fired

  /// Finished cleanly with zero violations.
  bool ok() const { return !watchdog && report.ok(); }
};

/// Derived per-seed RNG material (pure functions of the fuzz seed).
std::uint64_t chaos_trace_seed(std::uint64_t seed);
std::uint64_t chaos_content_seed(std::uint64_t seed);

/// Builds the SessionConfig a chaos cell (or a repro replay) runs: service
/// + profile + duration + plan, with trace/content seeds derived from
/// `chaos_seed`. `origin` selects the origin-tier preset the session runs
/// behind (kNone = the plain path); its retry-jitter seed is derived from
/// `chaos_seed` too. Throws ConfigError on unknown service / bad profile id.
core::SessionConfig make_session(const std::string& service, int profile_id,
                                 Seconds duration, std::uint64_t chaos_seed,
                                 const faults::FaultPlan& plan,
                                 origin::Mode origin = origin::Mode::kNone);

/// Runs one session under its own simulator settings (watchdogs, core) and
/// checks the invariant catalog, then `hook` when set. Forces an Observer
/// (the evidence source) if the config doesn't carry one, masked to
/// obs::kEvidenceMask; a caller's observer keeps its own mask.
CheckedRun run_checked(core::SessionConfig config, const TestHook& hook = {});

/// The inherited net::SimSettings apply to every cell. Fuzzing both cores
/// with the same pinned seed budget (chaos_smoke.sh) is the fuzz-scale
/// differential check: reports must be byte-identical across cores.
struct ChaosConfig : net::SimSettings {
  /// Watchdogs on by default. A healthy 120 s sim session finishes in well
  /// under a second, so the 60 s wall budget only ever fires on a genuine
  /// hang; 100000 events at one instant bounds zero-delay livelock.
  ChaosConfig() : net::SimSettings{net::SimCore::kEvent, 60, 100000} {}

  std::vector<std::uint64_t> seeds;  ///< one cell per fuzz seed

  /// Service-name pool cells draw from (empty = the whole catalog).
  std::vector<std::string> services;
  /// 1-based profile-id pool (empty = all profiles).
  std::vector<int> profiles;

  Seconds duration = 120;  ///< per-session sim duration
  int jobs = 1;            ///< worker threads (0 = hardware); output invariant

  GenOptions gen;  ///< fault-plan generator knobs

  /// Origin-tier preset every cell streams behind (kNone = no tier). Pair
  /// with gen.origin_faults so generated plans draw the cache-flush /
  /// DC-blackout windows that exercise it.
  origin::Mode origin = origin::Mode::kNone;

  bool minimize = true;  ///< shrink violating plans before emitting repros

  TestHook test_hook;  ///< forwarded to every cell's run_checked
};

/// One row per fuzz seed, in seed order.
struct ChaosRow {
  std::uint64_t seed = 0;
  std::string service;
  int profile_id = 0;
  std::size_t faults = 0;    ///< fault count of the generated plan
  std::string plan;          ///< plan_summary() of the generated plan
  bool ok = false;
  bool watchdog = false;
  std::string invariants;    ///< violated invariant names ("" when ok)
  std::string detail;        ///< first violation detail or watchdog message

  // Populated for violating rows (not watchdog aborts):
  bool minimized = false;
  std::size_t minimized_faults = 0;  ///< fault count after shrinking
  int minimize_runs = 0;             ///< oracle sessions spent shrinking
  ReproArtifact artifact;            ///< ready to serialize with to_json()
};

struct ChaosReport {
  std::vector<ChaosRow> rows;  ///< seed order
  int violations = 0;          ///< rows with invariant violations
  int watchdogs = 0;           ///< rows aborted by a watchdog

  bool ok() const { return violations == 0 && watchdogs == 0; }
};

/// Runs the whole fuzz budget. Deterministic: same config (any jobs value)
/// => identical report.
ChaosReport run_chaos(const ChaosConfig& config);

/// Replays a repro artifact under the same derivations the engine used,
/// with the simulator `settings` the caller chooses (the CLI passes its
/// ChaosConfig's).
CheckedRun replay(const ReproArtifact& artifact,
                  const net::SimSettings& settings = {},
                  const TestHook& hook = {});

/// Human-readable fixed-width report; byte-stable (no wall-clock content).
std::string chaos_report_text(const ChaosReport& report);

}  // namespace vodx::chaos
