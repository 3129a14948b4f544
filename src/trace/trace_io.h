// Text serialisation for bandwidth traces.
//
// The paper's collection method produces one throughput sample per second;
// this module reads and writes that format so recorded traces (or the
// built-in synthetic ones) can be shared between runs and tools:
//
//   # optional comment lines
//   <bandwidth_bps>        one per line, 1 Hz
#pragma once

#include <string>

#include "net/bandwidth_trace.h"

namespace vodx::trace {

/// Serialises a trace at 1 Hz (values are sampled at whole seconds).
std::string to_text(const net::BandwidthTrace& trace);

/// Parses the 1 Hz text format; '#' lines are comments. Throws ParseError
/// on a malformed or non-finite sample, and ConfigError on a negative one.
net::BandwidthTrace from_text(const std::string& text,
                              const std::string& name = "");

/// File convenience wrappers; throw Error on I/O failure.
void save_trace(const net::BandwidthTrace& trace, const std::string& path);
net::BandwidthTrace load_trace(const std::string& path);

}  // namespace vodx::trace
