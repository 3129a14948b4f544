// The events a TraceSink retains, copied out through TraceSink::for_each so
// a test can index and size them like a vector.
#pragma once

#include <vector>

#include "obs/trace_sink.h"

namespace vodx::testing {

inline std::vector<obs::Event> retained(const obs::TraceSink& sink) {
  std::vector<obs::Event> out;
  sink.for_each([&out](const obs::Event& event) { out.push_back(event); });
  return out;
}

}  // namespace vodx::testing
