// Table 2 at population scale: the paper's issue catalog (startup delay,
// stall frequency and duration, root causes) re-measured as distributions
// over every session of a shared-cell population instead of one curated
// session per service. Three towers host a flash-crowd scenario with
// telemetry sampling and per-session root-cause attribution on; the
// harness prints, per service, the population issue metrics (share of
// sessions with long startup, share that stalled, stall-time quantiles)
// and, per cause, the population stall-blame shares.
//
// Like bench_pop_distributions this is a golden determinism harness: it
// runs the identical population at --jobs 1 and --jobs 8 and refuses to
// print unless the text report AND the merged timeline CSV are
// byte-identical. It also enforces the attribution acceptance gate: at
// least 95% of sampled stall time must be charged to a non-unknown cause.
//
//   bench_pop_table2                 — issue + blame tables (golden-pinned)
//   bench_pop_table2 --timeline-csv  — merged population timeline CSV
//                                      (golden-pinned separately)
#include "support.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/strings.h"
#include "diag/cause.h"
#include "pop/pop_timeline.h"
#include "pop/population.h"

using namespace vodx;

namespace {

pop::PopulationConfig population(int jobs) {
  pop::PopulationConfig config;
  config.services = {"H1", "H2", "D1", "D2"};
  config.towers = {3, 7, 11};
  config.seed = 1;
  config.horizon = 300;
  config.arrivals.rate_per_min = 3.0;
  config.arrivals.diurnal_amplitude = 0.5;
  config.arrivals.diurnal_period = 240;
  config.arrivals.flash_at = 120;
  config.arrivals.flash_window = 20;
  config.arrivals.flash_arrivals = 12;
  config.watch_time = 150;
  config.watch_sigma = 0.5;
  config.jobs = jobs;
  config.collect_timeline = true;
  config.diagnose = true;
  config.diag_session_budget = 0;  // every session
  return config;
}

/// Per-service population issue metrics — Table 2's rows as distributions.
std::string issue_table(const pop::PopulationReport& report) {
  // Thresholds for "has the issue": startup beyond 10 s (the paper's junk
  // band) and any mid-session stall at all.
  constexpr double kLongStartup = 10.0;
  std::string out =
      "service  sessions  no_start%  long_start%  stalled%  stall_p50  "
      "stall_p95  stall_mean\n";
  for (const pop::ServiceRollup& rollup : report.by_service) {
    int sessions = 0, no_start = 0, long_start = 0, stalled = 0;
    std::vector<double> stalls;
    for (const pop::TowerReport& tower : report.towers) {
      for (const pop::SessionOutcome& s : tower.outcomes) {
        if (s.service != rollup.service) continue;
        ++sessions;
        if (s.startup_delay < 0) {
          ++no_start;
        } else if (s.startup_delay > kLongStartup) {
          ++long_start;
        }
        if (s.stall_time > 0) ++stalled;
        stalls.push_back(s.stall_time);
      }
    }
    if (sessions == 0) continue;
    const QuantileSummary stall = quantiles(stalls);
    out += format(
        "%-7s %9d %10.1f %12.1f %9.1f %10.2f %10.2f %11.2f\n",
        rollup.service.c_str(), sessions, 100.0 * no_start / sessions,
        100.0 * long_start / sessions, 100.0 * stalled / sessions, stall.p50,
        stall.p95, mean(stalls));
  }
  return out;
}

std::string blame_table(const pop::PopulationReport& report) {
  const diag::DiagRollup& diag = report.diag;
  std::string out = format(
      "blame: %d session(s) diagnosed, stall %.2f s, attribution %.3f\n",
      diag.cells, diag.stall_s,
      diag.stall_attributed_fraction());
  out += "cause                  stall_s  stall_share\n";
  for (int c = 0; c < diag::kCauseCount; ++c) {
    out += format("%-22s %8.2f %12.3f\n",
                  diag::to_string(static_cast<diag::Cause>(c)),
                  diag.stall_blamed_s[c],
                  diag.stall_s > 0 ? diag.stall_blamed_s[c] / diag.stall_s
                                   : 0.0);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool timeline_csv =
      argc > 1 && std::strcmp(argv[1], "--timeline-csv") == 0;

  const pop::PopulationReport serial = pop::run_population(population(1));
  const pop::PopulationReport threaded = pop::run_population(population(8));
  if (pop::population_text(serial) != pop::population_text(threaded) ||
      pop::population_timeline_csv(serial) !=
          pop::population_timeline_csv(threaded)) {
    std::fprintf(stderr,
                 "jobs=1 and jobs=8 populations differ — the timeline or "
                 "diag fold leaked schedule dependence\n");
    return 1;
  }

  const double attributed = serial.diag.stall_attributed_fraction();
  if (attributed < 0.95) {
    std::fprintf(stderr,
                 "stall attribution %.3f below the 0.95 acceptance gate\n",
                 attributed);
    return 1;
  }

  if (timeline_csv) {
    std::fputs(pop::population_timeline_csv(serial).c_str(), stdout);
    return 0;
  }

  bench::banner("Table 2 (population)",
                "issue catalog as shared-cell distributions — towers "
                "{3,7,11}, flash crowd, full diagnosis");
  std::fputs(issue_table(serial).c_str(), stdout);
  std::fputs(blame_table(serial).c_str(), stdout);
  return 0;
}
