// In-memory span recorder for the traced run.
//
// The benchmark opens a span around each call it makes into a layer; spans
// nest on one thread, carry the id of the replayed session they belong to,
// and stay in memory until the run ends, when they are summarised per name
// and written out as a Chrome trace_event file.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace vodxbench {

struct Span {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  ///< -1 while open
  int parent = -1;           ///< index of the enclosing span, -1 at the root
  int session = -1;          ///< replayed-session id, -1 when none
  int lane = 0;              ///< trace-viewer row (one per workload phase)
};

/// Count, inclusive and self time of every span sharing one name. Self
/// time is the duration minus what the span's direct children cover.
struct SpanStats {
  std::string name;
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span as a child of the innermost open span.
  int open(const char* name, int session = -1);
  /// Closes span `id` and any span still open inside it.
  void close(int id);

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, int session = -1)
        : recorder_(recorder), id_(recorder.open(name, session)) {}
    ~Scope() { recorder_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int id_;
  };

  /// Row new spans are drawn on in the trace viewer.
  void set_lane(int lane) { lane_ = lane; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per-name stats over closed spans, in first-open order.
  std::vector<SpanStats> summarize() const;

  /// {"traceEvents": [...]} with one complete ("X") event per closed span,
  /// microsecond timestamps, `lane_names[lane]` as thread names.
  std::string chrome_trace(const std::vector<std::string>& lane_names) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int lane_ = 0;
};

}  // namespace vodxbench
