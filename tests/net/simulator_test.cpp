#include "net/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/session_factory.h"
#include "net/link.h"
#include "services/service_catalog.h"

namespace vodx::net {
namespace {

/// A client that logs every tick, wake poll and fast-forward it receives.
/// `wake_every` > 0 makes it sparse (it wakes that long after each tick),
/// else dense.
struct LoggingClient : TickClient {
  LoggingClient(std::vector<char>* log, char name, Seconds wake_every = 0)
      : log(log), name(name), wake_every(wake_every) {}

  void tick(Seconds now, Seconds dt) override {
    (void)dt;
    ++ticks;
    next_due = now + wake_every;
    if (log != nullptr) log->push_back(name);
    if (on_tick) on_tick();
  }
  Seconds next_wake(Seconds now) override {
    ++polls;
    return std::max(next_due, now);
  }
  void fast_forward(Seconds, Seconds, std::uint64_t) override {
    ++fast_forwards;
  }

  std::vector<char>* log;
  char name;
  Seconds wake_every;
  Seconds next_due = 0;
  std::function<void()> on_tick;
  int ticks = 0;
  int polls = 0;
  int fast_forwards = 0;
};

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

TEST(SimulatorClients, RemovalKeepsTheOthersInRegistrationOrder) {
  Simulator sim(0.01);
  std::vector<char> log;
  LoggingClient a(&log, 'a'), b(&log, 'b'), c(&log, 'c'), d(&log, 'd');
  sim.add_tick_client(&a);
  sim.add_tick_client(&b);
  sim.add_tick_client(&c);
  sim.run_until(0.02);
  EXPECT_EQ(std::string(log.begin(), log.end()), "abcabc");
  log.clear();
  sim.remove_tick_client(&b);
  sim.add_tick_client(&d);
  sim.run_until(0.04);
  EXPECT_EQ(std::string(log.begin(), log.end()), "acdacd");
  log.clear();
  sim.remove_tick_client(&a);
  sim.run_until(0.05);
  EXPECT_EQ(std::string(log.begin(), log.end()), "cd");
}

TEST(SimulatorClients, RemovalFromInsideAnotherClientsTick) {
  Simulator sim(0.01);
  std::vector<char> log;
  LoggingClient a(&log, 'a'), b(&log, 'b'), c(&log, 'c');
  sim.add_tick_client(&a);
  sim.add_tick_client(&b);
  sim.add_tick_client(&c);
  // On b's second tick it removes a client that already ticked this tick
  // (a) and one that has not yet (c), then itself.
  b.on_tick = [&] {
    if (b.ticks != 2) return;
    sim.remove_tick_client(&a);
    sim.remove_tick_client(&c);
    sim.remove_tick_client(&b);
  };
  sim.run_until(0.05);
  EXPECT_EQ(std::string(log.begin(), log.end()), "abcab");
  EXPECT_EQ(a.ticks, 2);
  EXPECT_EQ(b.ticks, 2);
  EXPECT_EQ(c.ticks, 1);
}

TEST(SimulatorClients, RemovalFromInsideAnEventCallback) {
  Simulator sim(0.01);
  LoggingClient a(nullptr, 'a'), b(nullptr, 'b');
  sim.add_tick_client(&a);
  sim.add_tick_client(&b);
  sim.schedule(0.5, [&] { sim.remove_tick_client(&a); });
  sim.run_until(1.0);
  // Events fire before clients tick, so a misses the 0.5 s tick itself.
  EXPECT_EQ(a.ticks, 49);
  EXPECT_EQ(b.ticks, 100);
  EXPECT_EQ(sim.client_ticks(), 149u);
}

TEST(SimulatorClients, RemovedClientIsNeverTickedPolledOrFastForwarded) {
  Simulator sim(0.01);
  // Sparse clients: the event core skips between their 0.25 s wakes, so
  // all three hooks are exercised before the removal.
  LoggingClient gone(nullptr, 'g', 0.25), stays(nullptr, 's', 0.25);
  sim.add_tick_client(&gone);
  sim.add_tick_client(&stays);
  sim.run_until(1.0);
  ASSERT_GT(gone.ticks, 0);
  ASSERT_GT(gone.polls, 0);
  ASSERT_GT(gone.fast_forwards, 0);
  const int ticks = gone.ticks;
  const int polls = gone.polls;
  const int fast_forwards = gone.fast_forwards;
  const int stays_ticks = stays.ticks;
  sim.remove_tick_client(&gone);
  sim.run_until(3.0);
  EXPECT_EQ(gone.ticks, ticks);
  EXPECT_EQ(gone.polls, polls);
  EXPECT_EQ(gone.fast_forwards, fast_forwards);
  EXPECT_GT(stays.ticks, stays_ticks);
}

TEST(SimulatorClients, DoubleAndUnknownRemovalsAreNoOps) {
  Simulator sim(0.01);
  std::vector<char> log;
  LoggingClient a(&log, 'a'), b(&log, 'b'), never(&log, 'n');
  sim.add_tick_client(&a);
  sim.add_tick_client(&b);
  sim.remove_tick_client(&never);
  sim.remove_tick_client(nullptr);
  sim.run_until(0.01);
  sim.remove_tick_client(&a);
  sim.remove_tick_client(&a);
  sim.run_until(0.02);
  sim.remove_tick_client(&a);
  sim.run_until(0.03);
  EXPECT_EQ(std::string(log.begin(), log.end()), "abbb");
  EXPECT_EQ(never.ticks, 0);
  EXPECT_EQ(sim.client_ticks(), 4u);
}

/// The second of two sessions sharing one simulator and link, reduced to
/// the fields a population outcome folds. The first session departs at
/// 30 s; with `destroy_first` it is also destroyed there, mid-run.
std::string second_session_outcome(bool destroy_first) {
  core::SessionFactory factory;
  factory.session_duration = 90;
  factory.content_duration = 90;
  const core::SessionConfig config = factory.config(
      services::service("H1"), BandwidthTrace::constant(3e6, 600));
  Simulator sim(config.tick);
  Link link(sim, BandwidthTrace::constant(3e6, 600), config.rtt);
  auto first = std::make_unique<core::HostedSession>(sim, link, config);
  core::HostedSession second(sim, link, config);
  first->start();
  sim.schedule(5, [&] { second.start(); });
  sim.schedule(30, [&] {
    first->stop();
    if (destroy_first) first.reset();
  });
  sim.run_until(90);
  const core::SessionResult r = second.finish_light(sim.now());
  return format("%lld %.9f %.9f %d %zu %.9f %s",
                static_cast<long long>(r.ground_truth.total_bytes),
                r.ground_truth.startup_delay, r.ground_truth.total_stall,
                r.ground_truth.stall_count, r.events.displayed.size(),
                r.final_position, player::to_string(r.final_state));
}

TEST(SimulatorClients, StoppedSessionCanBeDestroyedWhileAnotherPlaysOn) {
  const std::string kept = second_session_outcome(false);
  const std::string destroyed = second_session_outcome(true);
  EXPECT_EQ(destroyed, kept);
  EXPECT_GT(std::stoll(kept), 0);  // the second session did stream
}

}  // namespace
}  // namespace vodx::net
