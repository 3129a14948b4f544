// Simulator watchdogs: the per-instant event bound catches zero-delay
// livelocks deterministically, and the wall-clock budget aborts runs that
// burn real time without finishing.
#include <gtest/gtest.h>

#include <chrono>

#include "net/simulator.h"

namespace vodx::net {
namespace {

TEST(Watchdog, ZeroDelayLivelockTripsTheEventBound) {
  Simulator sim(0.01);
  sim.set_max_events_per_instant(10);
  // A self-rescheduling zero-delay event never lets simulated time advance.
  std::function<void()> respawn = [&sim, &respawn] { sim.schedule(0, respawn); };
  sim.schedule(0, respawn);
  try {
    sim.run_until(1);
    FAIL() << "livelock ran to completion";
  } catch (const WatchdogError& e) {
    EXPECT_NE(std::string(e.what()).find("livelock"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos);
  }
}

TEST(Watchdog, EventBoundIsDisabledByDefault) {
  Simulator sim(0.01);
  int fired = 0;
  // 50 same-instant events: far beyond any accidental default bound.
  for (int i = 0; i < 50; ++i) {
    sim.schedule(0, [&fired] { ++fired; });
  }
  sim.run_until(0.05);
  EXPECT_EQ(fired, 50);
}

TEST(Watchdog, EventBoundAllowsBurstsBelowTheLimit) {
  Simulator sim(0.01);
  sim.set_max_events_per_instant(100);
  int fired = 0;
  for (int i = 0; i < 50; ++i) {
    sim.schedule(0.02, [&fired] { ++fired; });
  }
  sim.run_until(1);
  EXPECT_EQ(fired, 50);
}

TEST(Watchdog, WallBudgetAbortsARunThatBurnsRealTime) {
  Simulator sim(0.01);
  sim.set_wall_budget(0.05);
  // Each tick burns ~2 ms of real time; the budget dies long before the
  // simulated hour does.
  struct SlowClient : TickClient {
    void tick(Seconds, Seconds) override {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
    Seconds next_wake(Seconds now) override { return now; }
  };
  SlowClient client;
  sim.add_tick_client(&client);
  EXPECT_THROW(sim.run_until(3600), WatchdogError);
  EXPECT_LT(sim.now(), 3600);
}

TEST(Watchdog, WallBudgetNeverFiresOnARunThatFinishes) {
  Simulator sim(0.01);
  sim.set_wall_budget(30);  // generous; the run takes microseconds
  int fired = 0;
  sim.schedule(0.5, [&fired] { ++fired; });
  sim.run_until(1);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 1);
}

TEST(Watchdog, WallBudgetReArmsPerRunCall) {
  Simulator sim(0.01);
  sim.set_wall_budget(10);
  sim.run_until(1);
  sim.run_until(2);  // a second call must start a fresh budget, not throw
  EXPECT_DOUBLE_EQ(sim.now(), 2);
}

}  // namespace
}  // namespace vodx::net
