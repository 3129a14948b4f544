#include "harness/common.h"

#include <sched.h>
#include <sys/resource.h>

#include <chrono>

#include "support/json.h"

namespace vodxbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  const int count = CPU_COUNT(&set);
  return count > 0 ? count : 1;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string RunResult::json() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += json_string(metrics[i].name) + ":{\"value\":" +
           json_number(metrics[i].value) +
           ",\"unit\":" + json_string(metrics[i].unit) + "}";
  }
  return out + "}}";
}

PassTimes traced_passes(
    TraceContext& ctx, const std::string& name,
    const std::function<std::string(int jobs, bool reference)>& run) {
  ctx.lane(name + " passes");
  PassTimes times;
  std::string reference;
  const auto timed = [&](const char* span, int jobs, bool is_reference) {
    SpanRecorder::Scope scope(ctx.spans, span);
    const double start = now_s();
    const std::string digest = run(jobs, is_reference);
    const double elapsed = now_s() - start;
    if (is_reference) reference = digest;
    times.outputs_agree = times.outputs_agree && digest == reference;
    return elapsed;
  };
  timed("pass.reference", ctx.jobs, true);
  std::vector<double> untraced, profiled;
  for (int rep = 0; rep < 2; ++rep) {
    untraced.push_back(timed("pass.untraced", ctx.jobs, false));
    vodx::obs::profiler_reset();
    vodx::obs::set_profiling_enabled(true);
    profiled.push_back(timed("pass.profiled", ctx.jobs, false));
    vodx::obs::set_profiling_enabled(false);
    ctx.zones = vodx::obs::profiler_report();
  }
  times.untraced_s = vodx::median(untraced);
  times.profiled_s = vodx::median(profiled);
  times.serial_s = timed("pass.jobs1", 1, false);
  ctx.notes.push_back("output digest " + reference +
                      (times.outputs_agree
                           ? " (every pass, jobs=1 and jobs=nproc, agrees)"
                           : " (MISMATCH across passes)"));
  return times;
}

vodx::obs::ZoneStats zone(const std::vector<vodx::obs::ZoneStats>& zones,
                          const std::string& name) {
  for (const vodx::obs::ZoneStats& z : zones) {
    if (z.name == name) return z;
  }
  vodx::obs::ZoneStats empty;
  empty.name = name;
  return empty;
}

void add_zone_metrics(const std::vector<vodx::obs::ZoneStats>& zones,
                      RunResult& result) {
  const vodx::obs::ZoneStats resolve = zone(zones, "http.resolve");
  const vodx::obs::ZoneStats decide = zone(zones, "abr.decide");
  result.add("zone.http_resolve.count", static_cast<double>(resolve.count),
             "count");
  result.add("zone.http_resolve.self_ms", resolve.self_ns / 1e6, "ms");
  result.add("zone.abr_decide.count", static_cast<double>(decide.count),
             "count");
  result.add("zone.abr_decide.self_ms", decide.self_ns / 1e6, "ms");
}

}  // namespace vodxbench
