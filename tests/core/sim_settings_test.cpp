// Every entry point honours every net::SimSettings field: the settings on
// run_session's, run_sweep's, run_chaos's, chaos::replay's and
// run_population's config reach the simulator that runs the session.
//
//  - sim_core and wall_budget: a wall budget of 1e-9 s trips the wall-clock
//    watchdog at its first check, after 64 executed steps. On
//    kFixedTickReference every covered tick executes, so the trip lands at
//    exactly 64 * kTick = 0.64 s of sim time. The probe session below opens
//    with injected origin errors the player gives up or backs off on, so
//    the event core skips dead ticks inside its first 64 steps: it trips
//    later, or finishes in fewer steps than the first check.
//  - max_events_per_instant: a session's components are tick clients and
//    schedule no simulator events, so the livelock bound can only trip
//    where events are scheduled: the population runner's arrivals (two
//    viewers landing in one tick fire two events at one instant) and a bare
//    Simulator built from the settings. For the session entry points the
//    test checks that the bound reaches the SessionConfig run_session turns
//    into its simulator.
#include <gtest/gtest.h>

#include <string>

#include "batch/sweep.h"
#include "chaos/chaos.h"
#include "core/session.h"
#include "core/session_factory.h"
#include "net/simulator.h"
#include "pop/population.h"

namespace vodx {
namespace {

constexpr const char* kFixedTrip = "exhausted at sim t=0.64 s";
constexpr std::uint64_t kProbeSeed = 3;  ///< plan opens with origin errors
constexpr Seconds kProbeDuration = 30;

net::SimSettings tiny_budget(net::SimCore core) {
  net::SimSettings settings;
  settings.sim_core = core;
  settings.wall_budget = 1e-9;
  return settings;
}

net::SimSettings livelock_bound() {
  net::SimSettings settings;
  settings.max_events_per_instant = 1;
  return settings;
}

bool contains(const std::string& text, const char* needle) {
  return text.find(needle) != std::string::npos;
}

/// Checks one entry point under a tiny wall budget: `trip(core)` returns
/// the watchdog message of a run on that core ("" when none tripped). The
/// fixed-core run proves both settings arrived; the event-core run proves
/// the probe tells the cores apart (it skips inside its first 64 steps, or
/// finishes in fewer).
template <typename Trip>
void expect_core_and_budget_honoured(Trip trip) {
  const std::string fixed = trip(net::SimCore::kFixedTickReference);
  EXPECT_TRUE(contains(fixed, kFixedTrip)) << fixed;
  const std::string event = trip(net::SimCore::kEvent);
  EXPECT_FALSE(contains(event, kFixedTrip)) << event;
}

TEST(SimSettings, SimulatorAppliesEverySetting) {
  net::SimSettings settings;
  settings.sim_core = net::SimCore::kFixedTickReference;
  settings.wall_budget = 30;
  settings.max_events_per_instant = 1;
  net::Simulator fixed(settings);
  EXPECT_EQ(fixed.core(), net::SimCore::kFixedTickReference);
  EXPECT_DOUBLE_EQ(fixed.wall_budget(), 30);
  EXPECT_EQ(fixed.max_events_per_instant(), 1u);
  EXPECT_DOUBLE_EQ(fixed.tick_duration(), net::kTick);
  fixed.run_until(1.0);
  EXPECT_EQ(fixed.ticks_executed(), fixed.ticks_covered());

  net::Simulator event(net::SimSettings{});
  event.run_until(1.0);
  EXPECT_EQ(event.ticks_covered(), fixed.ticks_covered());
  EXPECT_LT(event.ticks_executed(), event.ticks_covered());

  fixed.schedule(0.05, [] {});
  fixed.schedule(0.05, [] {});
  EXPECT_THROW(fixed.run_until(2.0), net::WatchdogError);
}

// --- run_session --------------------------------------------------------------

core::SessionConfig probe_session() {
  return chaos::make_session("H1", 7, kProbeDuration, kProbeSeed,
                             chaos::generate_plan(kProbeSeed));
}

TEST(SimSettings, RunSessionHonoursCoreAndWallBudget) {
  expect_core_and_budget_honoured([](net::SimCore core) {
    core::SessionConfig config = probe_session();
    config.sim_settings() = tiny_budget(core);
    try {
      core::run_session(config);
    } catch (const net::WatchdogError& e) {
      return std::string(e.what());
    }
    return std::string();
  });
}

// --- run_sweep ----------------------------------------------------------------

batch::SweepConfig probe_sweep(const net::SimSettings& settings) {
  batch::SweepConfig config;
  config.sim_settings() = settings;
  config.services = {services::service("H1")};
  config.profiles = {7};
  config.session_duration = kProbeDuration;
  config.content_duration = kProbeDuration;
  config.cell_retries = 0;
  config.prepare = [](const batch::Cell&, core::SessionConfig& session) {
    session.fault_plan = chaos::generate_plan(kProbeSeed);
  };
  return config;
}

TEST(SimSettings, RunSweepQuarantinesUnderCoreAndWallBudget) {
  expect_core_and_budget_honoured([](net::SimCore core) {
    const batch::SweepResult result =
        batch::run_sweep(probe_sweep(tiny_budget(core)));
    EXPECT_EQ(result.quarantined,
              core == net::SimCore::kFixedTickReference ? 1 : 0);
    return result.cells.at(0).error;
  });
}

TEST(SimSettings, RunSweepForwardsTheLivelockBound) {
  batch::SweepConfig config = probe_sweep(livelock_bound());
  std::uint64_t seen = 0;
  config.prepare = [&seen](const batch::Cell&, core::SessionConfig& session) {
    seen = session.max_events_per_instant;
  };
  EXPECT_EQ(batch::run_sweep(config).failed, 0);
  EXPECT_EQ(seen, 1u);
}

// --- run_chaos and chaos::replay ----------------------------------------------

chaos::ChaosConfig probe_chaos(const net::SimSettings& settings) {
  chaos::ChaosConfig config;
  config.sim_settings() = settings;
  config.seeds = {kProbeSeed};
  config.services = {"H1"};
  config.profiles = {7};
  config.duration = kProbeDuration;
  config.minimize = false;
  return config;
}

/// A hook that records the settings of the session it checks.
chaos::TestHook record_settings(net::SimSettings& seen) {
  return [&seen](const core::SessionConfig& config, const core::SessionResult&,
                 const obs::Observer&, chaos::InvariantReport&) {
    seen = config.sim_settings();
  };
}

TEST(SimSettings, RunChaosReportsAWatchdogRowUnderCoreAndWallBudget) {
  expect_core_and_budget_honoured([](net::SimCore core) {
    const chaos::ChaosReport report =
        chaos::run_chaos(probe_chaos(tiny_budget(core)));
    EXPECT_EQ(report.watchdogs, 1);
    EXPECT_TRUE(report.rows.at(0).watchdog);
    return report.rows.at(0).detail;
  });
}

TEST(SimSettings, RunChaosForwardsTheLivelockBound) {
  chaos::ChaosConfig config = probe_chaos(livelock_bound());
  net::SimSettings seen;
  config.test_hook = record_settings(seen);
  EXPECT_EQ(chaos::run_chaos(config).watchdogs, 0);
  EXPECT_EQ(seen.max_events_per_instant, 1u);
  EXPECT_DOUBLE_EQ(seen.wall_budget, 0);
}

chaos::ReproArtifact probe_artifact() {
  chaos::ReproArtifact artifact;
  artifact.service = "H1";
  artifact.profile_id = 7;
  artifact.duration = kProbeDuration;
  artifact.chaos_seed = kProbeSeed;
  artifact.plan = chaos::generate_plan(kProbeSeed);
  return artifact;
}

TEST(SimSettings, ReplayHonoursCoreAndWallBudget) {
  expect_core_and_budget_honoured([](net::SimCore core) {
    const chaos::CheckedRun run =
        chaos::replay(probe_artifact(), tiny_budget(core));
    EXPECT_TRUE(run.watchdog);
    return run.watchdog_detail;
  });
}

TEST(SimSettings, ReplayForwardsTheLivelockBound) {
  net::SimSettings seen;
  const chaos::CheckedRun run =
      chaos::replay(probe_artifact(), livelock_bound(), record_settings(seen));
  EXPECT_FALSE(run.watchdog) << run.watchdog_detail;
  EXPECT_EQ(seen.max_events_per_instant, 1u);
}

// --- run_population -----------------------------------------------------------

/// One tower whose only viewers are a flash pair landing 1 ms apart, inside
/// one 10 ms tick: two arrival events fire at one instant.
pop::PopulationConfig probe_population(const net::SimSettings& settings) {
  pop::PopulationConfig config;
  config.sim_settings() = settings;
  config.services = {"H1"};
  config.horizon = kProbeDuration;
  config.content_duration = kProbeDuration;
  config.watch_time = kProbeDuration;
  config.arrivals.rate_per_min = 0;
  config.arrivals.flash_at = 20;
  config.arrivals.flash_window = 0.001;
  config.arrivals.flash_arrivals = 2;
  return config;
}

std::string population_watchdog(const net::SimSettings& settings) {
  try {
    pop::run_population(probe_population(settings));
  } catch (const net::WatchdogError& e) {
    return e.what();
  }
  return "";
}

TEST(SimSettings, RunPopulationHonoursEveryField) {
  EXPECT_EQ(population_watchdog({}), "");
  const std::string livelocked = population_watchdog(livelock_bound());
  EXPECT_TRUE(contains(livelocked, "(limit 1)")) << livelocked;
  expect_core_and_budget_honoured(
      [](net::SimCore core) { return population_watchdog(tiny_budget(core)); });
}

}  // namespace
}  // namespace vodx
