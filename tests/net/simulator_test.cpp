#include "net/simulator.h"

#include <gtest/gtest.h>

#include <vector>

namespace vodx::net {
namespace {

TEST(Simulator, TimeAdvancesInTicks) {
  Simulator sim(0.01);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  sim.run_until(1.0);
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Simulator, EventsFireInTimestampOrder) {
  Simulator sim(0.01);
  std::vector<int> order;
  sim.schedule(0.5, [&] { order.push_back(2); });
  sim.schedule(0.1, [&] { order.push_back(1); });
  sim.schedule(0.9, [&] { order.push_back(3); });
  sim.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, SameTimeEventsAreFifo) {
  Simulator sim(0.01);
  std::vector<int> order;
  sim.schedule(0.5, [&] { order.push_back(1); });
  sim.schedule(0.5, [&] { order.push_back(2); });
  sim.run_until(1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim(0.01);
  bool fired = false;
  auto id = sim.schedule(0.5, [&] { fired = true; });
  sim.cancel(id);
  sim.run_until(1.0);
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsScheduledFromEventsFire) {
  Simulator sim(0.01);
  int count = 0;
  sim.schedule(0.1, [&] {
    ++count;
    sim.schedule(0.1, [&] { ++count; });
  });
  sim.run_until(1.0);
  EXPECT_EQ(count, 2);
}

TEST(Simulator, TickHandlersSeeTickDuration) {
  // Always due, so the event core executes every tick.
  struct DenseClient : TickClient {
    void tick(Seconds, Seconds dt) override {
      ++ticks;
      total += dt;
    }
    Seconds next_wake(Seconds now) override { return now; }
    int ticks = 0;
    Seconds total = 0;
  };
  Simulator sim(0.02);
  DenseClient client;
  sim.add_tick_client(&client);
  sim.run_until(1.0);
  EXPECT_EQ(client.ticks, 50);
  EXPECT_NEAR(client.total, 1.0, 1e-9);
}

TEST(Simulator, RunForIsRelative) {
  Simulator sim(0.01);
  sim.run_for(0.5);
  sim.run_for(0.5);
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(Simulator, EventAtExactEndFires) {
  Simulator sim(0.01);
  bool fired = false;
  sim.schedule(1.0, [&] { fired = true; });
  sim.run_until(1.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, ZeroDelayFiresOnNextTick) {
  Simulator sim(0.01);
  bool fired = false;
  sim.schedule(0.0, [&] { fired = true; });
  EXPECT_FALSE(fired);
  sim.run_until(0.01);
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace vodx::net
