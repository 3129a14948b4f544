// Always-on invariant catalog for chaos runs.
//
// A fuzzed session that *finishes* is not necessarily a *correct* one: the
// paper's pathologies (stalls, discarded bytes, startup failures — Table 2)
// are exactly the conditions under which internal state drifts silently.
// Each invariant here is a property the engine must uphold under ANY fault
// plan; the checker evaluates the whole catalog against a finished session's
// ground truth (SessionResult), its event trace and its metrics, and reports
// every violation with the invariant's name, the offending value and the sim
// time — the unit the minimizer then shrinks fault plans against.
//
// The catalog (names are stable identifiers used in reports and repro
// artifacts; see DESIGN.md §11 for the full contract):
//
//   time.monotone       trace events never move backwards in sim time and
//                       never past the session end
//   span.balanced       span ends match opens (stack discipline per track),
//                       and spans still open at session end stay within the
//                       legitimately-in-flight bound (player state span +
//                       one http/tcp pair per connection) — more means a
//                       leak. Skipped, with a note, if the trace ring
//                       dropped events: balance is unknowable on a partial
//                       window.
//   buffer.bounds       sampled buffer occupancy stays within
//                       [0, pausing_threshold + in-flight slack]
//   transfer.order      every analyzed download completes at or after its
//                       request time, with non-negative bytes
//   bytes.conservation  media bytes <= total payload bytes on the wire;
//                       wasted bytes <= media bytes
//   retry.bounds        fetch failures <= HTTP requests + aborts (each
//                       failure consumes at least one wire attempt), resets
//                       <= requests
//   qoe.finite          every QoE component (truth and inferred) is finite
//                       and counts are non-negative
//   stall.well_formed   ground-truth stalls are ordered, non-overlapping,
//                       and only the last may be open-ended
//   session.completes   run_session returns under any fault plan; an
//                       escaped exception is reported (by chaos::run_checked)
//                       as a violation rather than crashing the fuzz run
//   cache.consistency   origin-tier edge-cache responses stay byte-identical
//                       to the origin's canonical bytes (every hit checks
//                       the identity its entry was filled for against the
//                       requester's; titles are immutable)
//   coalesce.no_dup_fetch  with coalescing enabled, a miss on a key whose
//                       fill is in flight joins it — never a duplicate fetch
//   failover.bounded    consecutive primary-DC failures never exceed the
//                       configured breaker threshold (the breaker trips)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/session.h"
#include "obs/observer.h"

namespace vodx::chaos {

struct Violation {
  std::string invariant;  ///< catalog name ("buffer.bounds", ...)
  std::string detail;     ///< human-readable evidence
  Seconds time = 0;       ///< sim time of the offending observation
};

struct InvariantReport {
  std::vector<Violation> violations;
  /// Checks skipped with the reason (e.g. span.balanced on a lossy trace).
  std::vector<std::string> skipped;

  bool ok() const { return violations.empty(); }
  /// "buffer.bounds, qoe.finite" — distinct violated invariants, in catalog
  /// order, deduplicated.
  std::string summary() const;
};

/// One catalog entry, for docs and `vodx chaos --invariants`.
struct InvariantInfo {
  const char* name;
  const char* description;
};
const std::vector<InvariantInfo>& invariant_catalog();

/// Evaluates the whole catalog. `observer` must be the one the session ran
/// with (its trace and metrics are the evidence).
InvariantReport check_invariants(const core::SessionConfig& config,
                                 const core::SessionResult& result,
                                 const obs::Observer& observer);

}  // namespace vodx::chaos
