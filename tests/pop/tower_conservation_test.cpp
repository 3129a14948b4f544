// Conservation invariants of one population tower, on both simulator cores:
// the shared link never carries more than its trace offers, both cores
// deliver the same bytes, a session that departed receives nothing after
// its departure, and no more sessions count as live than have arrived and
// not yet departed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "faults/fault_plan.h"
#include "net/simulator.h"
#include "pop/population.h"

namespace vodx::pop {
namespace {

/// One profile-7 tower over 600 s: ~60 arrivals at 6/min watching 60 s, so
/// most sessions depart well before the horizon.
PopulationConfig small_tower(net::SimCore core) {
  PopulationConfig config;
  config.towers = {7};
  config.seed = 3;
  config.horizon = 600;
  config.arrivals.rate_per_min = 6;
  config.watch_time = 60;
  config.collect_timeline = true;
  config.sim_core = core;
  return config;
}

std::vector<double> series(const TowerReport& tower, const char* name) {
  const int index = tower.timeline.find(name);
  EXPECT_GE(index, 0) << name;
  if (index < 0) return {};
  return tower.timeline.series(index).bins;
}

TEST(TowerConservation, LinkCarriesNoMoreThanItsTraceOffers) {
  for (net::SimCore core :
       {net::SimCore::kEvent, net::SimCore::kFixedTickReference}) {
    const TowerReport tower = run_population(small_tower(core)).towers.at(0);
    const std::vector<double> delivered = series(tower, "delivered_mbit");
    const std::vector<double> capacity = series(tower, "capacity_mbit");
    ASSERT_EQ(delivered.size(), capacity.size());
    const Seconds bin = tower.timeline.bin_width();
    double peak_mbps = 0;
    for (double c : capacity) peak_mbps = std::max(peak_mbps, c / bin);
    // A tick's grant is the capacity at its end, so a bin's deliveries may
    // lead its integral by a tick at either edge; whole-byte rounding adds
    // under a byte per transfer.
    const double slack = 2 * peak_mbps * net::kTick + 1e-3;
    double delivered_total = 0;
    double capacity_total = 0;
    for (std::size_t b = 0; b < delivered.size(); ++b) {
      EXPECT_LE(delivered[b], capacity[b] + slack) << "bin " << b;
      delivered_total += delivered[b];
      capacity_total += capacity[b];
    }
    EXPECT_GT(delivered_total, 0);
    EXPECT_LE(delivered_total, capacity_total + slack);
  }
}

TEST(TowerConservation, BothCoresDeliverTheSameBytes) {
  const TowerReport event =
      run_population(small_tower(net::SimCore::kEvent)).towers.at(0);
  const TowerReport fixed =
      run_population(small_tower(net::SimCore::kFixedTickReference))
          .towers.at(0);
  EXPECT_EQ(series(event, "delivered_mbit"), series(fixed, "delivered_mbit"));
  ASSERT_EQ(event.outcomes.size(), fixed.outcomes.size());
  for (std::size_t i = 0; i < event.outcomes.size(); ++i) {
    EXPECT_EQ(event.outcomes[i].total_bytes, fixed.outcomes[i].total_bytes)
        << "session " << i;
  }
}

TEST(TowerConservation, DepartedSessionsReceiveNoBytesAfterDeparture) {
  // Undiagnosed sessions fold at their departure; with diagnosis on (no
  // budget) every session stays hosted and folds after the run. Equal byte
  // counts mean no departed session received a byte after it left.
  for (net::SimCore core :
       {net::SimCore::kEvent, net::SimCore::kFixedTickReference}) {
    const TowerReport at_departure =
        run_population(small_tower(core)).towers.at(0);
    PopulationConfig config = small_tower(core);
    config.diagnose = true;
    config.diag_session_budget = 0;
    const TowerReport at_horizon = run_population(config).towers.at(0);
    ASSERT_EQ(at_departure.outcomes.size(), at_horizon.outcomes.size());
    int departed = 0;
    for (std::size_t i = 0; i < at_departure.outcomes.size(); ++i) {
      const SessionOutcome& early = at_departure.outcomes[i];
      if (early.departure < config.horizon) ++departed;
      EXPECT_EQ(early.total_bytes, at_horizon.outcomes[i].total_bytes)
          << "session " << i;
    }
    EXPECT_GT(departed, 40);
  }
}

TEST(TowerConservation, ConcurrentNeverExceedsArrivalsMinusDepartures) {
  // Every request fails, so every session reaches kFailed during startup,
  // long before its departure.
  faults::ErrorFault error;
  error.status = 503;
  error.probability = 1;
  for (net::SimCore core :
       {net::SimCore::kEvent, net::SimCore::kFixedTickReference}) {
    PopulationConfig config = small_tower(core);
    config.fault_plan.name = "all-503";
    config.fault_plan.errors.push_back(error);
    const TowerReport tower = run_population(config).towers.at(0);
    int failed_departed = 0;
    for (const SessionOutcome& o : tower.outcomes) {
      if (o.final_state == "failed" && o.departure < config.horizon) {
        ++failed_departed;
      }
    }
    EXPECT_GT(failed_departed, 40);
    const std::vector<double> arrivals = series(tower, "arrivals");
    const std::vector<double> departures = series(tower, "departures");
    const std::vector<double> concurrent = series(tower, "concurrent");
    ASSERT_EQ(arrivals.size(), concurrent.size());
    ASSERT_EQ(departures.size(), concurrent.size());
    double live = 0;
    for (std::size_t b = 0; b < concurrent.size(); ++b) {
      live += arrivals[b] - departures[b];
      EXPECT_LE(concurrent[b], live) << "bin " << b;
    }
  }
}

}  // namespace
}  // namespace vodx::pop
