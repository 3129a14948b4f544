#include "trace/trace_io.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "common/strings.h"

namespace vodx::trace {

std::string to_text(const net::BandwidthTrace& trace) {
  std::string out = "# vodx bandwidth trace, 1 sample per second, bps\n";
  if (!trace.name().empty()) out += "# name: " + trace.name() + "\n";
  for (Seconds t = 0; t < trace.duration(); t += 1) {
    out += format("%.0f\n", trace.at(t));
  }
  return out;
}

net::BandwidthTrace from_text(const std::string& text,
                              const std::string& name) {
  std::vector<Bps> samples;
  std::string trace_name = name;
  for (std::string_view rest = text; !rest.empty();) {
    const std::string_view line = next_line(rest);
    std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    if (trimmed.front() == '#') {
      constexpr std::string_view kNameTag = "# name: ";
      if (trace_name.empty() && starts_with(line, kNameTag)) {
        trace_name = std::string(trim(line).substr(kNameTag.size() - 1));
        trace_name = std::string(trim(trace_name));
      }
      continue;
    }
    const Bps sample = parse_double(trimmed);
    if (!std::isfinite(sample)) {
      throw ParseError("bandwidth sample is not finite: '" +
                       std::string(trimmed) + "'");
    }
    samples.push_back(sample);
  }
  if (samples.empty()) throw ParseError("trace file holds no samples");
  net::BandwidthTrace trace = net::BandwidthTrace::per_second(samples);
  trace.set_name(trace_name);
  return trace;
}

void save_trace(const net::BandwidthTrace& trace, const std::string& path) {
  std::ofstream file(path);
  if (!file) throw Error("cannot open for writing: " + path);
  file << to_text(trace);
  if (!file) throw Error("failed writing trace to " + path);
}

net::BandwidthTrace load_trace(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw Error("cannot open trace file: " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return from_text(buffer.str());
}

}  // namespace vodx::trace
