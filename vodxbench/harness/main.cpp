// vodxbench: the vodx benchmark harness.
//
//   vodxbench --workload grid|pop|chaos --seed N --seconds S --trace 0|1
//             [--setup-only] [--out-dir DIR]
//
// --trace 0 runs the workload end to end with the profiler off: set-up, one
// untimed warm pass, then timed passes for S seconds; it prints the
// end-to-end metrics. --trace 1 is the separate per-layer run (see
// README.md). Set-up ends with a "# setup done" line, so the caller can
// time process start until then; --setup-only exits right after it. The
// last stdout line is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <string>

#include "harness/common.h"

#ifndef VODXBENCH_BUILD_TYPE
#define VODXBENCH_BUILD_TYPE "unknown"
#endif

namespace vodxbench {
namespace {

/// Every per-layer metric, in report order, with its unit. A workload that
/// does not exercise a layer reports 0 for it (README.md lists which).
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPerLayer[] = {
    {"setup.encode_ms", "ms"},
    {"setup.origin_ms", "ms"},
    {"setup.session_ms", "ms"},
    {"setup.share", "fraction"},
    {"manifest.parse_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.ticks_covered", "count"},
    {"sim.ticks_executed", "count"},
    {"sim.exec_ratio", "fraction"},
    {"sim.ns_per_executed_tick", "ns"},
    {"sim.events_fired", "count"},
    {"link.delivered_mb", "MB"},
    {"work.sim_s", "s"},
    {"http.requests", "count"},
    {"http.resets", "count"},
    {"tcp.transfers", "count"},
    {"tcp.idle_restarts", "count"},
    {"abr.decisions", "count"},
    {"zone.http_resolve.count", "count"},
    {"zone.http_resolve.self_ms", "ms"},
    {"zone.abr_decide.count", "count"},
    {"zone.abr_decide.self_ms", "ms"},
    {"finish.ms", "ms"},
    {"finish.traffic_ms", "ms"},
    {"finish.buffer_ms", "ms"},
    {"finish.qoe_ms", "ms"},
    {"obs.snapshot_ms", "ms"},
    {"obs.trace_emitted", "count"},
    {"obs.trace_dropped", "count"},
    {"batch.parallel_efficiency", "fraction"},
    {"batch.aggregate_ms", "ms"},
    {"render.report_text_ms", "ms"},
    {"render.report_jsonl_ms", "ms"},
    {"render.report_html_ms", "ms"},
    {"render.sweep_csv_ms", "ms"},
    {"render.sweep_jsonl_ms", "ms"},
    {"pop.tower_ms", "ms"},
    {"pop.tower_imbalance", "ratio"},
    {"pop.ms_per_session", "ms"},
    {"pop.timeline_cost_s", "s"},
    {"pop.diag_cost_s", "s"},
    {"pop.sessions", "count"},
    {"pop.peak_concurrent", "count"},
    {"render.population_text_ms", "ms"},
    {"render.population_jsonl_ms", "ms"},
    {"render.timeline_csv_ms", "ms"},
    {"origin.cache_hit_ratio", "fraction"},
    {"origin.coalesced", "count"},
    {"origin.retries", "count"},
    {"origin.failover_trips", "count"},
    {"chaos.cell_ms", "ms"},
    {"chaos.check_ms", "ms"},
    {"faults.injected", "count"},
    {"render.chaos_text_ms", "ms"},
    {"replay.sessions", "count"},
    {"replay.match_ratio", "fraction"},
    {"layer_coverage", "fraction"},
    {"trace_overhead", "fraction"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  int trace = 0;
  bool setup_only = false;
  std::string out_dir = ".bench_out";
};

int usage() {
  std::fprintf(stderr,
               "usage: vodxbench --workload grid|pop|chaos --seed N "
               "--seconds S --trace 0|1 [--setup-only] [--out-dir DIR]\n");
  return 2;
}

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--setup-only") {
      args.setup_only = true;
    } else if (!has_value) {
      return false;
    } else if (flag == "--workload") {
      args.workload = argv[++i];
    } else if (flag == "--seed") {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(argv[++i]);
    } else if (flag == "--trace") {
      args.trace = std::atoi(argv[++i]);
    } else if (flag == "--out-dir") {
      args.out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return !args.workload.empty() && args.seconds > 0 &&
         (args.trace == 0 || args.trace == 1);
}

/// Timed passes with the profiler off: an untimed warm pass sets the
/// reference digest, then passes run until `seconds` of measurement have
/// elapsed (at least three).
RunResult end_to_end(Workload& workload, int jobs, double seconds) {
  RunResult result;
  const PassResult warm = workload.pass(jobs);
  std::printf("# warm pass: %.3f s, %llu sessions, digest %s\n", warm.wall_s,
              static_cast<unsigned long long>(warm.sessions),
              warm.digest.c_str());
  result.attempted += warm.sessions;
  result.failed += warm.failed;

  std::vector<double> rates, session_ms;
  const double deadline = now_s() + seconds;
  while (rates.size() < 3 || now_s() < deadline) {
    PassResult pass;
    bool threw = false;
    try {
      pass = workload.pass(jobs);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "vodxbench: pass failed: %s\n", e.what());
      threw = true;
    }
    const bool digest_ok = !threw && pass.digest == warm.digest;
    if (!threw && !digest_ok) {
      std::fprintf(stderr, "vodxbench: digest %s differs from warm %s\n",
                   pass.digest.c_str(), warm.digest.c_str());
    }
    // A pass that throws or whose outputs changed fails all its sessions.
    const std::uint64_t sessions = threw ? warm.sessions : pass.sessions;
    result.attempted += sessions;
    result.failed += digest_ok ? pass.failed : sessions;
    result.correct = result.correct && digest_ok;
    if (threw) break;
    rates.push_back(static_cast<double>(pass.sessions) / pass.wall_s);
    session_ms.insert(session_ms.end(), pass.session_ms.begin(),
                      pass.session_ms.end());
    std::printf("# pass %zu: %.3f s, %.1f sessions/s, median %.3f ms\n",
                rates.size(), pass.wall_s, rates.back(),
                vodx::median(pass.session_ms));
  }
  result.add("sessions_per_s", vodx::median(rates), "sessions/s");
  const double p50 = vodx::median(session_ms);
  result.add("session_ms_p50", p50, "ms");
  // Pooled over the timed passes. A 99th percentile needs at least 10
  // samples beyond it. pop has no per-session samples, only one per-session
  // mean per pass, so it has no tail; it repeats the median there.
  const std::optional<double> p99 = percentile(session_ms, 0.99);
  if (!p99) {
    std::printf("# session_ms_p99: %zu samples, too few for a 99th "
                "percentile; reporting the median\n",
                session_ms.size());
  }
  result.add("session_ms_p99", p99.value_or(p50), "ms");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  const double failed_ratio =
      result.attempted > 0
          ? static_cast<double>(result.failed) / result.attempted
          : 0.0;
  std::printf("# failed_ratio %.6f (%llu of %llu), %zu timed passes, "
              "sessions_per_s iqr/median %.4f\n",
              failed_ratio, static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted), rates.size(),
              iqr_share(rates));
  return result;
}

RunResult traced(Workload& workload, const Args& args, int jobs) {
  TraceContext ctx;
  ctx.jobs = jobs;
  RunResult result;
  workload.traced(ctx, result);
  if (ctx.zones.empty()) {
    // Built with VODX_PROFILER_DISABLED: the zone metrics would read 0.
    std::fprintf(stderr, "vodxbench: the profiler recorded no zones\n");
    result.correct = false;
  }

  // Canonical order; a layer the workload does not exercise reads 0.
  std::set<std::string> known;
  RunResult ordered;
  ordered.correct = result.correct;
  ordered.attempted = result.attempted;
  ordered.failed = result.failed;
  for (const LayerMetric& m : kPerLayer) {
    known.insert(m.name);
    double value = 0;
    for (const Metric& got : result.metrics) {
      if (got.name == m.name) value = got.value;
    }
    ordered.add(m.name, value, m.unit);
  }
  for (const Metric& got : result.metrics) {
    if (known.count(got.name) == 0) {
      std::fprintf(stderr, "vodxbench: unlisted per-layer metric %s\n",
                   got.name.c_str());
      ordered.correct = false;
    }
  }

  // Per-layer table and Chrome trace, next to each other.
  std::filesystem::create_directories(args.out_dir);
  const std::string base = args.out_dir + "/" + args.workload;
  std::string table = "# vodxbench per-layer table: workload " +
                      args.workload + ", seed " + std::to_string(args.seed) +
                      "\n";
  for (const std::string& note : ctx.notes) table += "# " + note + "\n";
  table += "\nmetric                          value  unit\n";
  for (const Metric& m : ordered.metrics) {
    char line[160];
    std::snprintf(line, sizeof line, "%-28s %14.6g  %s\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    table += line;
  }
  const auto timing_row = [&](const std::string& name, std::uint64_t count,
                               double total_ns, double self_ns) {
    char line[160];
    std::snprintf(line, sizeof line, "%-26s %8llu %11.3f %11.3f\n",
                  name.c_str(), static_cast<unsigned long long>(count),
                  total_ns / 1e6, self_ns / 1e6);
    table += line;
  };
  table += "\nspan (benchmark side)         count    total_ms     self_ms\n";
  for (const SpanStats& s : ctx.spans.summarize()) {
    timing_row(s.name, s.count, s.total_ns, s.self_ns);
  }
  table += "\nprofiler zone (program side)  count    total_ms     self_ms\n";
  for (const vodx::obs::ZoneStats& z : ctx.zones) {
    timing_row(z.name, z.count, z.total_ns, z.self_ns);
  }
  std::ofstream(base + ".layers.txt") << table;
  std::ofstream(base + ".trace.json") << ctx.spans.chrome_trace(ctx.lanes);
  std::printf("# per-layer table: %s.layers.txt, trace: %s.trace.json\n",
              base.c_str(), base.c_str());
  return ordered;
}

}  // namespace
}  // namespace vodxbench

int main(int argc, char** argv) {
  using namespace vodxbench;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "vodxbench: refusing to time a sanitizer or unoptimized "
               "build\n");
  return 2;
#endif
  Args args;
  if (!parse(argc, argv, args)) return usage();

  std::unique_ptr<Workload> workload;
  if (args.workload == "grid") {
    workload = make_grid(args.seed);
  } else if (args.workload == "pop") {
    workload = make_pop(args.seed);
  } else if (args.workload == "chaos") {
    workload = make_chaos(args.seed);
  } else {
    return usage();
  }

  // One process, jobs = nproc, and no threads beyond the workers.
  const int jobs = nproc();
  try {
    workload->setup();
    std::printf("# setup done\n");
    std::fflush(stdout);
    if (args.setup_only) return 0;
    // The benchmark's build always compiles the profiler in; --trace 1
    // fails if it records nothing.
    std::printf("# vodxbench workload=%s seed=%llu seconds=%g trace=%d "
                "nproc=%d jobs=%d build=%s profiler=1\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace, nproc(), jobs, VODXBENCH_BUILD_TYPE);
    const RunResult result = args.trace == 1
                                 ? traced(*workload, args, jobs)
                                 : end_to_end(*workload, jobs, args.seconds);
    std::printf("%s\n", result.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vodxbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
