// Differential old-vs-new simulator core for population towers.
//
// tests/net/differential_core_test.cpp holds the two cores equal over
// single-session sweep grids. A tower is a different shape: one simulator
// hosts every session, arrivals register tick clients mid-run, departures
// stop and free them, and the telemetry sampler and diagnosis ride along.
// This test runs such towers on SimCore::kEvent and on kFixedTickReference
// and requires every population export to be byte-identical. The one output
// the core choice is meant to change is the work it does: the executed-tick
// and client-tick counters are compared apart from the exports.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "origin/origin.h"
#include "pop/pop_timeline.h"
#include "pop/population.h"

namespace vodx::pop {
namespace {

/// Two profile-14 towers over 900 s, each on its own worker thread (so the
/// TSan leg sees sessions freed concurrently): ~180 arrivals per tower at
/// 12/min watching 120 s each, so sessions arrive and depart throughout the
/// run. Hardened origin, diagnosis and the timeline sampler are all on.
PopulationConfig differential_towers(net::SimCore core) {
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
  config.sim_core = core;
  return config;
}

TEST(PopCoreDifferential, TowerExportsAreByteIdenticalOnBothCores) {
  PopulationReport event =
      run_population(differential_towers(net::SimCore::kEvent));
  PopulationReport fixed =
      run_population(differential_towers(net::SimCore::kFixedTickReference));
  ASSERT_EQ(event.towers.size(), 2u);
  ASSERT_EQ(fixed.towers.size(), 2u);
  ASSERT_GT(event.total_sessions, 200);

  for (std::size_t t = 0; t < event.towers.size(); ++t) {
    TowerReport& e = event.towers[t];
    TowerReport& f = fixed.towers[t];
    EXPECT_EQ(e.ticks_covered, f.ticks_covered);
    EXPECT_EQ(f.ticks_executed, f.ticks_covered);
    EXPECT_LE(e.ticks_executed, f.ticks_executed);
    EXPECT_LE(e.client_ticks, f.client_ticks);
    e.ticks_executed = f.ticks_executed = 0;
    e.client_ticks = f.client_ticks = 0;
  }

  EXPECT_GT(event.diag.sessions_diagnosed, 0);
  EXPECT_GT(event.diag.sessions_skipped, 0);
  EXPECT_EQ(population_text(event), population_text(fixed));
  EXPECT_EQ(population_jsonl(event), population_jsonl(fixed));
  EXPECT_EQ(population_csv(event), population_csv(fixed));
  EXPECT_EQ(population_timeline_csv(event), population_timeline_csv(fixed));
}

}  // namespace
}  // namespace vodx::pop
