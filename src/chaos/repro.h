// Self-contained repro artifacts for chaos findings.
//
// A minimized violation is only useful if it travels: the artifact is one
// JSON document carrying the exact session coordinates (service, profile,
// duration, seeds), the minimized FaultPlan, the violated invariants and a
// ready-to-paste CLI line. `vodx chaos --repro file.json` replays it and
// reports whether the violation still fires — the contract tested by the
// chaos suite.
#pragma once

#include <cstdint>
#include <string>

#include "faults/fault_plan.h"

namespace vodx::chaos {

struct ReproArtifact {
  std::string service;       ///< catalog service name
  int profile_id = 7;        ///< 1-based cellular profile
  Seconds duration = 120;    ///< session duration
  std::uint64_t chaos_seed = 0;  ///< the fuzz seed that found it
  std::string invariants;    ///< violated invariant names (summary string)
  /// Origin-tier preset the session ran with ("none"|"naive"|"hardened");
  /// replay reconstructs the tier so origin-targeted faults land somewhere.
  std::string origin_mode = "none";
  faults::FaultPlan plan;    ///< the (minimized) plan to replay

  /// "vodx chaos --repro <path>" — the line a human runs.
  std::string cli_line(const std::string& path) const;
};

/// Serializes the artifact as one line of JSON with a fixed key order and
/// canonical numbers (json_number). Byte-stable for identical artifacts.
std::string to_json(const ReproArtifact& artifact);

/// Parses an artifact produced by to_json (tolerates whitespace and key
/// reordering). Throws ParseError on malformed input.
ReproArtifact parse_repro(const std::string& json);

}  // namespace vodx::chaos
