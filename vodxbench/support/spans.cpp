#include "support/spans.h"

#include <map>

#include "support/json.h"

namespace vodxbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::open(const char* name, int session) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.session = session;
  span.lane = lane_;
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  // Closing an outer span closes what is still open inside it (an
  // exception unwinding past explicit open/close pairs); never throws, as
  // Scope calls this from a destructor.
  const std::int64_t end = now_ns();
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    spans_[static_cast<std::size_t>(top)].end_ns = end;
    if (top == id) break;
  }
}

std::vector<SpanStats> SpanRecorder::summarize() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.end_ns < 0 || span.parent < 0) continue;
    child_ns[static_cast<std::size_t>(span.parent)] +=
        span.end_ns - span.start_ns;
  }
  std::vector<SpanStats> out;
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    auto [it, added] = index.emplace(span.name, out.size());
    if (added) out.push_back(SpanStats{span.name, 0, 0, 0});
    SpanStats& stats = out[it->second];
    const std::int64_t total = span.end_ns - span.start_ns;
    ++stats.count;
    stats.total_ns += total;
    stats.self_ns += total - child_ns[i];
  }
  return out;
}

std::string SpanRecorder::chrome_trace(
    const std::vector<std::string>& lane_names) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  for (std::size_t lane = 0; lane < lane_names.size(); ++lane) {
    comma();
    out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" +
           std::to_string(lane) +
           ",\"args\":{\"name\":" + json_string(lane_names[lane]) + "}}";
  }
  for (const Span& span : spans_) {
    if (span.end_ns < 0) continue;
    comma();
    out += "{\"ph\":\"X\",\"cat\":\"vodxbench\",\"name\":" +
           json_string(span.name) + ",\"pid\":1,\"tid\":" +
           std::to_string(span.lane) +
           ",\"ts\":" + json_number(span.start_ns / 1e3) +
           ",\"dur\":" + json_number((span.end_ns - span.start_ns) / 1e3) +
           ",\"args\":{\"session\":" + std::to_string(span.session) +
           ",\"parent\":" +
           json_string(span.parent < 0
                           ? ""
                           : spans_[static_cast<std::size_t>(span.parent)].name) +
           "}}";
  }
  return out + "]}\n";
}

}  // namespace vodxbench
