// Origin resilience under a flash-crowd + primary-DC blackout (DESIGN.md
// §16): the population drill `vodx origin` runs, pinned as a golden. A
// 24-viewer crowd lands on one tower at t=25 s, every viewer streams the
// same title through the tower's shared edge cache, and the primary
// datacenter goes dark from t=28 s to t=58 s. The naive origin (no
// coalescing, no retries, no secondary DC) and the hardened origin
// (coalescing + bounded retries + breaker failover) play the identical
// schedule; the harness refuses to print unless
//
//   * both legs are byte-identical at --jobs 1 and --jobs 8,
//   * the hardened origin completes >= 90% of sessions while the naive
//     origin completes < 50% — the headline resilience gate.
//
// The second half answers the root-cause question: of the Table 2 issue
// time (startup delay + stall) a diagnosed sweep measures, what share is
// origin-side (cache-miss service time, failover waits, first-byte origin
// latency)?
#include "support.h"

#include <cstdio>
#include <string>
#include <vector>

#include "batch/sweep.h"
#include "diag/cause.h"
#include "diag/rollup.h"
#include "origin/origin.h"
#include "pop/population.h"

using namespace vodx;

namespace {

pop::PopulationConfig drill(origin::Mode mode, int jobs) {
  pop::PopulationConfig config = pop::origin_drill();
  config.services = {"H1", "H2", "D1", "D2"};
  config.origin = origin::preset(mode);
  config.jobs = jobs;
  return config;
}

double origin_share(const diag::DiagRollup& rollup) {
  const double origin_s =
      rollup.blamed_s[static_cast<int>(diag::Cause::kOriginFailover)] +
      rollup.blamed_s[static_cast<int>(diag::Cause::kOriginCacheMiss)] +
      rollup.blamed_s[static_cast<int>(diag::Cause::kOriginLatency)];
  return rollup.problem_s > 0 ? origin_s / rollup.problem_s : 0.0;
}

}  // namespace

int main() {
  // Leg 1/2: the drill itself, each origin mode at jobs 1 vs jobs 8.
  const origin::Mode modes[] = {origin::Mode::kNaive, origin::Mode::kHardened};
  std::vector<pop::PopulationReport> reports;
  std::vector<pop::Completion> completion;
  for (origin::Mode mode : modes) {
    const pop::PopulationReport serial = pop::run_population(drill(mode, 1));
    const pop::PopulationReport threaded = pop::run_population(drill(mode, 8));
    if (pop::population_text(serial) != pop::population_text(threaded)) {
      std::fprintf(stderr,
                   "%s drill differs between jobs=1 and jobs=8 — the shared "
                   "origin state leaked schedule dependence\n",
                   origin::to_string(mode));
      return 1;
    }
    completion.push_back(pop::completed_sessions(serial));
    reports.push_back(serial);
  }

  // The headline resilience gate.
  if (completion[0].fraction() >= 0.50) {
    std::fprintf(stderr,
                 "naive origin completed %.1f%% of sessions under the "
                 "blackout; the drill expects < 50%%\n",
                 completion[0].fraction() * 100.0);
    return 1;
  }
  if (completion[1].fraction() < 0.90) {
    std::fprintf(stderr,
                 "hardened origin completed only %.1f%% of sessions under "
                 "the blackout; the acceptance gate is >= 90%%\n",
                 completion[1].fraction() * 100.0);
    return 1;
  }

  bench::banner("Origin resilience",
                "flash crowd + primary-DC blackout — naive vs hardened "
                "origin tier, shared edge cache per tower");

  std::printf(
      "drill: 24-viewer flash crowd at t=25 s over 15 s, primary DC dark "
      "28-58 s,\none tower (profile 14), shared title, horizon 120 s\n\n");
  Table table({"origin", "sessions", "completed", "completed%", "start_p95",
               "stall_p95", "cache_hit%", "secondary", "errors"});
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const pop::PopulationReport& r = reports[i];
    const origin::OriginState::Totals& o = r.origin_totals;
    const long long lookups = o.hits + o.misses;
    table.add_row(origin::to_string(modes[i]), std::to_string(completion[i].total),
         std::to_string(completion[i].completed),
         format("%.1f", completion[i].fraction() * 100.0),
         format("%.2f", r.startup.p95), format("%.2f", r.stall.p95),
         format("%.1f", lookups > 0 ? 100.0 * o.hits / lookups : 0.0),
         std::to_string(o.secondary), std::to_string(o.errors));
  }
  table.print();
  std::printf(
      "\nhardened origin buys back %+.1f pts completion "
      "(%d/%d -> %d/%d session(s))\n",
      (completion[1].fraction() - completion[0].fraction()) * 100.0,
      completion[0].completed, completion[0].total, completion[1].completed,
      completion[1].total);

  // Leg 3: origin-side share of Table 2 issue time, per service — a
  // diagnosed sweep behind the hardened origin (no injected faults: this is
  // the steady-state origin cost, packaging + cache misses + first-byte).
  batch::SweepConfig grid;
  grid.services = {services::service("H1"), services::service("H2"),
                   services::service("D1"), services::service("D2")};
  grid.profiles = {7};
  grid.origin_modes = {"hardened"};
  grid.session_duration = 300;
  grid.content_duration = 300;
  grid.jobs = bench::harness_jobs();
  const diag::SweepDiagnosis diagnosis = diag::diagnose_sweep(grid);
  if (diagnosis.failed > 0) {
    std::fprintf(stderr, "diagnosed sweep failed %d cell(s)\n",
                 diagnosis.failed);
    return 1;
  }

  std::printf(
      "\norigin-side share of issue time (startup + stall), hardened "
      "origin, profile 7\n");
  std::printf("service  issue_s  origin_s  origin_share\n");
  for (const diag::DiagRollup& rollup : diagnosis.by_service) {
    const double share = origin_share(rollup);
    std::printf("%-7s %8.2f %9.2f %13.3f\n", rollup.key.c_str(),
                rollup.problem_s, rollup.problem_s * share, share);
  }
  std::printf("%-7s %8.2f %9.2f %13.3f\n", "overall",
              diagnosis.overall.problem_s,
              diagnosis.overall.problem_s * origin_share(diagnosis.overall),
              origin_share(diagnosis.overall));
  return 0;
}
