// Exact work counters for one population tower. Wall-clock cost drifts with
// the machine; the ticks a tower's simulator covers and executes, and the
// TickClient::tick calls it makes, do not. Pinning them catches a tower
// whose per-tick work grows with every session it ever hosted, not just its
// live ones (a departed player left registered), without timing anything.
#include <gtest/gtest.h>

#include <cstdint>

#include "pop/population.h"

namespace vodx::pop {
namespace {

/// One profile-7 tower over 600 s: ~60 arrivals at 6/min watching 60 s, so
/// the tower hosts several times more sessions than are ever live at once.
TowerReport small_tower(net::SimCore core) {
  PopulationConfig config;
  config.towers = {7};
  config.seed = 3;
  config.horizon = 600;
  config.arrivals.rate_per_min = 6;
  config.watch_time = 60;
  config.collect_timeline = true;
  config.sim_core = core;
  PopulationReport report = run_population(config);
  return report.towers.at(0);
}

TEST(TowerWorkCounters, EventCorePinsAllThreeCounters) {
  const TowerReport tower = small_tower(net::SimCore::kEvent);
  EXPECT_EQ(tower.sessions, 63);
  EXPECT_EQ(tower.sim.ticks_covered, 60000u);
  EXPECT_EQ(tower.sim.ticks_executed, 15124u);
  EXPECT_EQ(tower.sim.client_ticks, 20057u);
}

TEST(TowerWorkCounters, SleepingPlayersCutClientTicksFivefold) {
  // The link and the event queue decide which ticks execute; on those
  // ticks the event core runs only the clients that are due or poked. A
  // player downloading a segment sleeps until the completion pokes it.
  const TowerReport event = small_tower(net::SimCore::kEvent);
  const TowerReport fixed = small_tower(net::SimCore::kFixedTickReference);
  EXPECT_LE(5 * event.sim.client_ticks, fixed.sim.client_ticks);
  EXPECT_GT(event.sim.fast_forwards, 0u);
  EXPECT_EQ(fixed.sim.fast_forwards, 0u);
}

TEST(TowerWorkCounters, BothCoresCoverTheSameTicks) {
  const TowerReport event = small_tower(net::SimCore::kEvent);
  const TowerReport fixed = small_tower(net::SimCore::kFixedTickReference);
  EXPECT_EQ(event.sim.ticks_covered, fixed.sim.ticks_covered);
  EXPECT_EQ(fixed.sim.ticks_executed, fixed.sim.ticks_covered);
  EXPECT_LT(event.sim.ticks_executed, fixed.sim.ticks_executed);
}

TEST(TowerWorkCounters, ClientTicksAreBoundedByLiveSessions) {
  // Each executed tick runs at most the live players plus the link and the
  // timeline sampler.
  for (net::SimCore core :
       {net::SimCore::kEvent, net::SimCore::kFixedTickReference}) {
    const TowerReport tower = small_tower(core);
    ASSERT_GT(tower.sessions, 3 * tower.peak_concurrent);
    EXPECT_LE(tower.sim.client_ticks,
              tower.sim.ticks_executed *
                  static_cast<std::uint64_t>(tower.peak_concurrent + 2));
  }
}

}  // namespace
}  // namespace vodx::pop
