// Shared plumbing of the benchmark harness: the workload interface, the
// result line, and host measurements (clock, cores, peak RSS).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/profiler.h"
#include "support/spans.h"
#include "support/stats.h"

namespace vodxbench {

/// Monotonic host time in seconds.
double now_s();

/// Cores this process may run on (sched_getaffinity), at least 1.
int nproc();

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What the harness prints as its last line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
  std::string json() const;
};

/// One end-to-end pass over the workload's whole input.
struct PassResult {
  double wall_s = 0;
  std::uint64_t sessions = 0;  ///< sessions the pass completed or attempted
  std::uint64_t failed = 0;    ///< of those, failed (see README.md)
  std::string digest;          ///< of the pass's deterministic outputs
  /// Host ms per session. grid: per cell; chaos: per fuzz seed; pop: one
  /// sample per pass (sessions share a simulator loop, so no per-session
  /// host time exists from outside).
  std::vector<double> session_ms;
};

/// Everything the traced run writes besides its metrics.
struct TraceContext {
  int jobs = 1;
  SpanRecorder spans;
  std::vector<std::string> lanes;  ///< trace-viewer row names
  std::vector<std::string> notes;  ///< lines for the per-layer table file
  std::vector<vodx::obs::ZoneStats> zones;

  /// Starts a new trace-viewer row; later spans are drawn on it.
  void lane(const std::string& name) {
    lanes.push_back(name);
    spans.set_lane(static_cast<int>(lanes.size()) - 1);
  }
};

/// A named workload. setup() builds every input the passes need; pass()
/// runs the workload end to end with the profiler off; traced() is the
/// separate per-layer run.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual PassResult pass(int jobs) = 0;
  /// Reports every per-layer metric (0 where the layer is not exercised)
  /// and sets result.correct / attempted / failed.
  virtual void traced(TraceContext& ctx, RunResult& result) = 0;
};

std::unique_ptr<Workload> make_grid(std::uint64_t seed);
std::unique_ptr<Workload> make_pop(std::uint64_t seed);
std::unique_ptr<Workload> make_chaos(std::uint64_t seed);

/// Median over `reps` timed calls of fn, in ms.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    const double start = now_s();
    fn();
    samples.push_back((now_s() - start) * 1e3);
  }
  return vodx::median(samples);
}

/// Host times of the traced run's passes.
struct PassTimes {
  double untraced_s = 0;  ///< median of the untraced passes at ctx.jobs
  double profiled_s = 0;  ///< median of the profiled passes at ctx.jobs
  double serial_s = 0;    ///< the jobs=1 pass
  bool outputs_agree = true;  ///< every pass digested like the reference
};

/// The traced run's pass schedule: a warm reference pass, then untraced
/// and profiled passes interleaved (two each, so drift hits both alike),
/// then one jobs=1 pass last. `run(jobs, reference)` runs one pass and
/// returns its output digest. ctx.zones receives the last profiled pass's
/// program zones. Spans go on a "<name> passes" lane.
PassTimes traced_passes(
    TraceContext& ctx, const std::string& name,
    const std::function<std::string(int jobs, bool reference)>& run);

/// The named zone from a profiler report (zeros when absent).
vodx::obs::ZoneStats zone(const std::vector<vodx::obs::ZoneStats>& zones,
                          const std::string& name);

/// Adds the per-layer metrics every workload reports in the same shape:
/// the profiler's http.resolve / abr.decide zones.
void add_zone_metrics(const std::vector<vodx::obs::ZoneStats>& zones,
                      RunResult& result);

}  // namespace vodxbench
