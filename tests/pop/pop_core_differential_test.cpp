// Differential old-vs-new simulator core for population towers.
//
// tests/net/differential_core_test.cpp holds the two cores equal over
// single-session sweep grids. A tower is a different shape: one simulator
// hosts every session, arrivals register tick clients mid-run, departures
// stop and free them, and the telemetry sampler and diagnosis ride along.
// This test runs such towers on SimCore::kEvent and on kFixedTickReference
// and requires every population export to be byte-identical. The one output
// the core choice is meant to change is the work it does: the executed-tick,
// client-tick and fast-forward counters are compared apart from the exports.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "diag/cause.h"
#include "faults/fault_plan.h"
#include "origin/origin.h"
#include "pop/pop_timeline.h"
#include "pop/population.h"

namespace vodx::pop {
namespace {

/// Two profile-14 towers over 900 s, each on its own worker thread (so the
/// TSan leg sees sessions freed concurrently): ~180 arrivals per tower at
/// 12/min watching 120 s each, so sessions arrive and depart throughout the
/// run. Hardened origin, diagnosis and the timeline sampler are all on.
PopulationConfig differential_towers() {
  PopulationConfig config;
  config.towers = {14, 14};
  config.jobs = 2;
  config.seed = 5;
  config.horizon = 900;
  config.arrivals.rate_per_min = 12;
  config.watch_time = 120;
  config.shared_content = true;
  config.origin = origin::preset(origin::Mode::kHardened);
  config.origin.validate();
  config.diagnose = true;
  config.collect_timeline = true;
  return config;
}

/// Runs `config` on both cores, requires every export byte-identical and
/// returns the event-core report. The work counters, which the core choice
/// is meant to change, are checked for direction and then zeroed before
/// the exports (the JSONL tower lines and the tower CSV carry them) are
/// compared.
PopulationReport expect_identical_on_both_cores(PopulationConfig config) {
  config.sim_core = net::SimCore::kEvent;
  PopulationReport event = run_population(config);
  config.sim_core = net::SimCore::kFixedTickReference;
  PopulationReport fixed = run_population(config);
  EXPECT_EQ(event.towers.size(), config.towers.size());
  EXPECT_EQ(fixed.towers.size(), config.towers.size());
  if (event.towers.size() != fixed.towers.size()) return event;

  for (std::size_t t = 0; t < event.towers.size(); ++t) {
    TowerReport& e = event.towers[t];
    TowerReport& f = fixed.towers[t];
    EXPECT_EQ(e.sim.ticks_covered, f.sim.ticks_covered);
    EXPECT_EQ(e.sim.events_fired, f.sim.events_fired);
    EXPECT_EQ(f.sim.ticks_executed, f.sim.ticks_covered);
    EXPECT_LE(e.sim.ticks_executed, f.sim.ticks_executed);
    EXPECT_LE(e.sim.client_ticks, f.sim.client_ticks);
    EXPECT_GT(e.sim.fast_forwards, 0u);
    EXPECT_EQ(f.sim.fast_forwards, 0u);
    e.sim.ticks_executed = f.sim.ticks_executed = 0;
    e.sim.client_ticks = f.sim.client_ticks = 0;
    e.sim.fast_forwards = 0;
  }

  EXPECT_EQ(population_text(event), population_text(fixed));
  EXPECT_EQ(population_jsonl(event), population_jsonl(fixed));
  EXPECT_EQ(population_csv(event), population_csv(fixed));
  EXPECT_EQ(population_tower_csv(event), population_tower_csv(fixed));
  EXPECT_EQ(population_timeline_csv(event), population_timeline_csv(fixed));
  EXPECT_EQ(population_timeline_jsonl(event),
            population_timeline_jsonl(fixed));
  return event;
}

TEST(PopCoreDifferential, TowerExportsAreByteIdenticalOnBothCores) {
  const PopulationReport event =
      expect_identical_on_both_cores(differential_towers());
  EXPECT_GT(event.total_sessions, 200);
  EXPECT_GT(event.diag.cells, 0);
  EXPECT_GT(event.diag_skipped, 0);
}

TEST(PopCoreDifferential, FaultedTowersAreByteIdenticalOnBothCores) {
  // Latency, error and reset faults on every tower: retries, aborted and
  // failed fetches cross the poke and catch-up path of sleeping players.
  PopulationConfig config = differential_towers();
  config.towers = {9, 14};
  config.horizon = 600;
  faults::FaultPlan plan;
  plan.name = "pop-differential";
  faults::LatencyFault latency;
  latency.base = 0.3;
  latency.jitter = 0.5;
  latency.probability = 0.3;
  plan.latency.push_back(latency);
  faults::ErrorFault error;
  error.match.url_contains = "seg";
  error.probability = 0.1;
  plan.errors.push_back(error);
  faults::ResetFault reset;
  reset.match.url_contains = "seg";
  reset.probability = 0.1;
  plan.resets.push_back(reset);
  config.fault_plan = plan;
  const PopulationReport event = expect_identical_on_both_cores(config);
  EXPECT_GT(event.total_sessions, 100);
  // The faults fired: diagnosis charges problem time to them.
  EXPECT_GT(event.diag.blamed_s[static_cast<int>(diag::Cause::kFaultInjected)],
            0);
}

}  // namespace
}  // namespace vodx::pop
