// A snapshot's obs::write_metrics() JSON as a string, so tests can compare
// snapshots byte for byte.
#pragma once

#include <string>

#include "common/json.h"
#include "obs/export.h"

namespace vodx::testing {

inline std::string metrics_json(const obs::MetricsSnapshot& snapshot) {
  std::string out;
  JsonWriter w(out);
  obs::write_metrics(w, snapshot);
  return out;
}

}  // namespace vodx::testing
