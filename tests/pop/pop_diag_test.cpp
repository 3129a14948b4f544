// What diagnosing a pop tower's sessions costs the tower. Diagnosis reads
// each diagnosed session's trace ring after the run; recording that
// evidence must not change what the tower's simulator does. A recorded
// series the link plans around (the per-RTT cwnd samples) would wake the
// shared link for every session on the tower.
#include <gtest/gtest.h>

#include <string_view>

#include "core/session.h"
#include "net/bandwidth_trace.h"
#include "obs/observer.h"
#include "pop/population.h"
#include "services/service_catalog.h"

namespace vodx::pop {
namespace {

/// One profile-7 tower over 600 s with its timeline on, so diagnosis is
/// the only difference between the two runs.
TowerReport small_tower(bool diagnose) {
  PopulationConfig config;
  config.towers = {7};
  config.seed = 3;
  config.horizon = 600;
  config.arrivals.rate_per_min = 6;
  config.watch_time = 60;
  config.collect_timeline = true;
  config.diagnose = diagnose;
  return run_population(config).towers.at(0);
}

TEST(PopDiag, DiagnosisLeavesTowerWorkUnchanged) {
  const TowerReport plain = small_tower(false);
  const TowerReport diagnosed = small_tower(true);
  ASSERT_GT(diagnosed.diag.cells, 0);
  EXPECT_EQ(diagnosed.sim.ticks_covered, plain.sim.ticks_covered);
  EXPECT_EQ(diagnosed.sim.ticks_executed, plain.sim.ticks_executed);
  EXPECT_EQ(diagnosed.sim.client_ticks, plain.sim.client_ticks);
  EXPECT_EQ(diagnosed.sim.fast_forwards, plain.sim.fast_forwards);
  EXPECT_EQ(diagnosed.sim.events_fired, plain.sim.events_fired);
  ASSERT_EQ(diagnosed.outcomes.size(), plain.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    const SessionOutcome& a = plain.outcomes[i];
    const SessionOutcome& b = diagnosed.outcomes[i];
    EXPECT_EQ(a.ordinal, b.ordinal);
    EXPECT_EQ(a.service, b.service);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.departure, b.departure);
    EXPECT_EQ(a.startup_delay, b.startup_delay);
    EXPECT_EQ(a.stall_time, b.stall_time);
    EXPECT_EQ(a.stall_count, b.stall_count);
    EXPECT_EQ(a.total_bytes, b.total_bytes);
    EXPECT_EQ(a.mbps, b.mbps);
    EXPECT_EQ(a.final_state, b.final_state);
  }
}

/// Counts a retained event by name in one session's ring.
int count_named(const obs::Observer& observer, std::string_view name) {
  int n = 0;
  observer.trace.for_each([&](const obs::Event& event) {
    if (name == event.name) ++n;
  });
  return n;
}

TEST(PopDiag, EvidenceMaskLeavesOutTheCwndSeries) {
  obs::Observer masked;
  masked.trace.set_category_mask(kDiagEvidenceMask);
  obs::Observer full;
  for (obs::Observer* observer : {&masked, &full}) {
    core::SessionConfig config;
    config.spec = services::service("H1");
    config.trace = net::BandwidthTrace::constant(4e6, 60);
    config.session_duration = 60;
    config.content_duration = 120;
    config.observer = observer;
    core::run_session(config);
  }
  EXPECT_EQ(count_named(masked, "tcp.cwnd_kb"), 0);
  EXPECT_GT(count_named(masked, "tcp.transfer"), 0);
  EXPECT_GT(count_named(full, "tcp.cwnd_kb"), 0);
}

}  // namespace
}  // namespace vodx::pop
