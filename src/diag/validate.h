// Precision/recall harness for fault.injected attribution.
//
// For every fault scenario in the catalog the harness runs a small grid,
// reconstructs the ground-truth fault windows (fired fault instants plus
// plan blackout windows, each extended by the influence window), and scores
// whether fault.injected blame lands inside them:
//
//   recall    = fault-blamed problem time inside truth windows
//               / problem time inside truth windows
//   precision = fault-blamed time inside truth windows (+ carry grace)
//               / total fault-blamed time
//
// Both are 1 when their denominator is zero (e.g. scenario "none", or a
// fault-free cell). The harness is a self-consistency regression gate: a
// change that lets blame drift outside injected windows, or stops charging
// overlapped problem time to the fault, fails the ≥ 0.9 gate in
// scripts/diag_smoke.sh.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"
#include "diag/diagnose.h"

namespace vodx::diag {

struct ScenarioScore {
  std::string scenario;
  int cells = 0;

  Seconds truth_s = 0;       ///< problem time inside truth windows
  Seconds truth_hit_s = 0;   ///< ... of which blamed fault.injected
  Seconds blamed_s = 0;      ///< total fault.injected blame
  Seconds blamed_hit_s = 0;  ///< ... of which inside truth (+ grace)

  double recall() const { return truth_s > 0 ? truth_hit_s / truth_s : 1; }
  double precision() const {
    return blamed_s > 0 ? blamed_hit_s / blamed_s : 1;
  }
};

struct ValidationReport {
  std::vector<ScenarioScore> scores;  ///< catalog order
  double min_precision() const;
  double min_recall() const;
  bool pass(double threshold) const;
};

/// Runs every catalog scenario for `duration`-second sessions and scores
/// it. Deterministic.
ValidationReport validate(Seconds duration);

/// One row per scenario plus a verdict line against `threshold`.
std::string validation_text(const ValidationReport& report, double threshold);

}  // namespace vodx::diag
