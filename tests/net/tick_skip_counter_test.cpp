// Exact tick counters for the event core's skip win. Wall-clock speedups
// drift with the machine; the number of grid ticks the core executes does
// not. Pinning it catches a TickClient whose next_wake() collapses to
// "every tick" (the event core silently degrading into the fixed-tick
// loop) without timing anything.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/session_factory.h"
#include "net/link.h"
#include "net/simulator.h"
#include "services/service_catalog.h"

namespace vodx::core {
namespace {

struct TickTotals {
  std::uint64_t covered = 0;
  std::uint64_t executed = 0;
};

/// One 120 s profile-7 session per catalog service, each on its own
/// caller-owned simulator and link, summed over the catalog.
TickTotals catalog_tick_totals(net::SimCore core) {
  SessionFactory factory;
  factory.session_duration = 120;
  factory.content_duration = 120;
  factory.sim_core = core;
  TickTotals totals;
  for (const services::ServiceSpec& spec : services::catalog()) {
    const SessionConfig config = factory.config(spec, 7, 2017, 42);
    net::Simulator sim(config.tick);
    sim.set_core(config.sim_core);
    net::Link link(sim, config.trace, config.rtt);
    HostedSession session(sim, link, config);
    session.start();
    sim.run_until(config.session_duration);
    totals.covered += sim.ticks_covered();
    totals.executed += sim.ticks_executed();
  }
  return totals;
}

TEST(TickSkipCounters, EventCoreExecutesAPinnedShareOfTheCatalogTicks) {
  const TickTotals totals = catalog_tick_totals(net::SimCore::kEvent);
  EXPECT_EQ(totals.covered, 143988u);
  EXPECT_EQ(totals.executed, 5762u);
}

TEST(TickSkipCounters, FixedTickReferenceExecutesEveryCoveredTick) {
  const TickTotals totals =
      catalog_tick_totals(net::SimCore::kFixedTickReference);
  EXPECT_EQ(totals.covered, 143988u);
  EXPECT_EQ(totals.executed, 143988u);
}

}  // namespace
}  // namespace vodx::core
