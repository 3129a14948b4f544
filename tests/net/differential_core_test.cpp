// Differential tests: the event-driven core vs the fixed-tick reference.
//
// Every observable output — SessionResult, ground-truth and inferred QoE,
// player events, fault stats, metrics snapshots and the serialized sweep
// documents — must be identical across net::SimCore::kEvent and
// net::SimCore::kFixedTickReference for the same grid. These tests sweep
// deliberately diverse slices of (service × profile × seed × fault
// scenario): different protocols, persistent vs non-persistent connections,
// parallel segment downloads, separate-audio pipelines, and every fault
// scenario in the catalog.
#include <gtest/gtest.h>

#include "player/config.h"
#include "services/service_catalog.h"
#include "testing/differential.h"

namespace vodx {
namespace {

TEST(DifferentialCore, CatalogServicesMatch) {
  testing::DifferentialGrid grid;
  // One service per architecture family: HLS persistent (H1), HLS
  // non-persistent (H2), DASH with parallel downloads (D1), Smooth with
  // separate audio and a tight resume threshold (S2).
  grid.services = {"H1", "H2", "D1", "S2"};
  grid.profiles = {7, 3};
  grid.duration = 60;
  const testing::DifferentialResult result = testing::run_differential(grid);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.event.cells.size(), 8u);
}

TEST(DifferentialCore, SweepSeedsMatch) {
  testing::DifferentialGrid grid;
  grid.services = {"H3", "D4"};
  grid.profiles = {1, 10};
  grid.seeds = {0, 7, 123};
  grid.duration = 60;
  const testing::DifferentialResult result = testing::run_differential(grid);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.event.cells.size(), 12u);
}

TEST(DifferentialCore, FaultScenariosMatch) {
  testing::DifferentialGrid grid;
  grid.services = {"H1", "D2"};
  grid.profiles = {7};
  grid.seeds = {0, 1};
  // Every catalog scenario; 150 s so the first blackout window (120 s) is
  // inside the session.
  grid.fault_scenarios.clear();
  for (const faults::Scenario& s : faults::scenario_catalog()) {
    grid.fault_scenarios.push_back(s.name);
  }
  grid.duration = 150;
  const testing::DifferentialResult result = testing::run_differential(grid);
  EXPECT_TRUE(result.ok()) << result.summary();
  EXPECT_EQ(result.event.cells.size(),
            2u * 2u * faults::scenario_catalog().size());
}

TEST(DifferentialCore, HardenedPlayersUnderFaultsMatch) {
  // Hardened players abort fetches that outlive fetch_timeout (12 s). A
  // sleeping player with a fetch in flight wakes for that deadline; the
  // 20 s blackout at 120 s makes the deadlines fire.
  testing::DifferentialGrid grid;
  grid.services = {"H1", "D1"};
  grid.hardened = true;
  grid.fault_scenarios = {"blackout", "flaky-origin", "resets"};
  grid.duration = 150;
  const testing::DifferentialResult result = testing::run_differential(grid);
  EXPECT_TRUE(result.ok()) << result.summary();
  std::int64_t failures = 0;
  for (const batch::CellResult& cell : result.event.cells) {
    if (cell.fault != "blackout") continue;
    const obs::MetricsSnapshot::Entry* entry =
        cell.metrics.find("player.fetch_failures");
    if (entry != nullptr) failures += entry->count;
  }
  EXPECT_GT(failures, 0);
}

TEST(DifferentialCore, MeterReadsWhileTheLinkSleepsMatch) {
  // A player that ticks while the link sleeps through a span reads a stale
  // DeliveryTally; by its next video completion its meter must still hold
  // the sum the per-tick loop reached. Per-segment SR keeps a player awake
  // on every tick, so every player reads the tally mid-span.
  batch::SweepConfig config;
  for (const services::ServiceSpec& spec : services::catalog()) {
    config.services.push_back(spec);
    config.services.back().player.sr = player::SrPolicy::kPerSegment;
  }
  config.profiles = {3, 7};
  config.session_duration = 120;
  config.content_duration = 120;
  config.sim_core = net::SimCore::kEvent;
  const std::string event = batch::sweep_csv(batch::run_sweep(config));
  config.sim_core = net::SimCore::kFixedTickReference;
  EXPECT_EQ(batch::sweep_csv(batch::run_sweep(config)), event);
}

}  // namespace
}  // namespace vodx
