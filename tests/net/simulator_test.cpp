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
  EXPECT_EQ(sim.counters().client_ticks, 149u);
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
  EXPECT_EQ(sim.counters().client_ticks, 4u);
}

// --- The wake heap: due clients, pokes and catch-up ------------------------

/// A client that sleeps until poked (or until `wake_at`) and records when
/// it ran and how many slept ticks it was asked to replay.
struct SleepyClient : TickClient {
  explicit SleepyClient(std::vector<char>* log = nullptr, char name = '?')
      : log(log), name(name) {}

  void tick(Seconds now, Seconds) override {
    ran_at.push_back(now);
    if (log != nullptr) log->push_back(name);
    if (on_tick) on_tick(now);
  }
  Seconds next_wake(Seconds) override {
    const Seconds wake = wake_at;
    wake_at = kNeverWakes;
    return wake;
  }
  void fast_forward(Seconds, Seconds, std::uint64_t ticks) override {
    ++fast_forwards;
    replayed += ticks;
  }

  std::vector<char>* log;
  char name;
  Seconds wake_at = kNeverWakes;
  std::function<void(Seconds)> on_tick;
  std::vector<Seconds> ran_at;
  int fast_forwards = 0;
  std::uint64_t replayed = 0;
};

TEST(SimulatorWakeHeap, PokeFromAnEventRunsTheClientInThatTick) {
  Simulator sim(0.01);
  SleepyClient client;
  sim.add_tick_client(&client);
  sim.schedule(0.5, [&] { sim.poke(&client); });
  sim.run_until(1.0);
  ASSERT_EQ(client.ran_at.size(), 1u);
  EXPECT_NEAR(client.ran_at[0], 0.5, 1e-9);
  // Caught up over 0.01 .. 0.49 before running, then over 0.51 .. 1.0 when
  // run_until returned.
  EXPECT_EQ(client.replayed, 49u + 50u);
  EXPECT_EQ(client.fast_forwards, 2);
  EXPECT_EQ(sim.ticks_executed(), 1u);
}

TEST(SimulatorWakeHeap, PokeFromAClientsTickHonoursRegistrationSlots) {
  Simulator sim(0.01);
  std::vector<char> log;
  SleepyClient early(&log, 'e'), link(&log, 'l'), late(&log, 'z');
  sim.add_tick_client(&early);
  sim.add_tick_client(&link);
  sim.add_tick_client(&late);
  link.wake_at = 0.5;
  link.on_tick = [&](Seconds) {
    // What a completion callback inside the link's tick does.
    sim.poke(&late);
    sim.poke(&early);
  };
  sim.run_until(1.0);
  EXPECT_EQ(std::string(log.begin(), log.end()), "lze");
  ASSERT_EQ(late.ran_at.size(), 1u);
  ASSERT_EQ(early.ran_at.size(), 1u);
  EXPECT_NEAR(late.ran_at[0], 0.5, 1e-9);   // slot still ahead: same tick
  EXPECT_NEAR(early.ran_at[0], 0.51, 1e-9);  // slot passed: next tick
  // The late client lived through 0.49 before the poke, the early one
  // through 0.50 (its slot had passed); both end caught up to 1.0.
  EXPECT_EQ(late.replayed, 49u + 50u);
  EXPECT_EQ(early.replayed, 50u + 49u);
}

TEST(SimulatorWakeHeap, DueClientsRunInRegistrationOrder) {
  Simulator sim(0.01);
  std::vector<char> log;
  SleepyClient a(&log, 'a'), b(&log, 'b'), c(&log, 'c');
  sim.add_tick_client(&a);
  sim.add_tick_client(&b);
  sim.add_tick_client(&c);
  // All three fall due on the 0.50 tick; the heap holds them in wake order
  // c, b, a, but they run in registration order.
  a.wake_at = 0.5;
  b.wake_at = 0.4975;
  c.wake_at = 0.495;
  sim.run_until(1.0);
  EXPECT_EQ(std::string(log.begin(), log.end()), "abc");
  for (const SleepyClient* client : {&a, &b, &c}) {
    ASSERT_EQ(client->ran_at.size(), 1u);
    EXPECT_NEAR(client->ran_at[0], 0.5, 1e-9);
  }
}

TEST(SimulatorWakeHeap, RemovedSleepingClientNeverTicksOrFastForwardsAgain) {
  Simulator sim(0.01);
  SleepyClient gone, stays;
  sim.add_tick_client(&gone);
  sim.add_tick_client(&stays);
  gone.wake_at = 0.3;
  stays.wake_at = 0.3;
  sim.run_until(0.5);
  ASSERT_EQ(gone.ran_at.size(), 1u);
  const int fast_forwards = gone.fast_forwards;
  const std::uint64_t replayed = gone.replayed;
  // Removed while asleep with a wake still in the heap.
  gone.wake_at = 0.8;
  sim.poke(&gone);  // runs at 0.51 unless removed first
  sim.remove_tick_client(&gone);
  sim.poke(&gone);  // no-op for a client that left
  stays.wake_at = 0.8;
  sim.poke(&stays);
  sim.run_until(2.0);
  EXPECT_EQ(gone.ran_at.size(), 1u);
  EXPECT_EQ(gone.fast_forwards, fast_forwards);
  EXPECT_EQ(gone.replayed, replayed);
  ASSERT_EQ(stays.ran_at.size(), 3u);
  EXPECT_NEAR(stays.ran_at[1], 0.51, 1e-9);
  EXPECT_NEAR(stays.ran_at[2], 0.8, 1e-9);
}

TEST(SimulatorWakeHeap, ClientRegisteredInAnEventFirstRunsOnTheNextTick) {
  for (SimCore core : {SimCore::kEvent, SimCore::kFixedTickReference}) {
    Simulator sim(0.01);
    sim.set_core(core);
    std::vector<char> log;
    LoggingClient arrival(&log, 'n');
    sim.schedule(0.5, [&] { sim.add_tick_client(&arrival); });
    sim.run_until(0.5);
    EXPECT_EQ(arrival.ticks, 0);
    sim.run_until(0.53);
    EXPECT_EQ(arrival.ticks, 3);  // 0.51, 0.52, 0.53
    EXPECT_NEAR(arrival.next_due, 0.53, 1e-9);
  }
}

/// One H1 session at 3 Mbps, stopped at `stops` in turn: its position and
/// client-tick count at each stop.
std::vector<std::string> positions_at(SimCore core,
                                      const std::vector<Seconds>& stops) {
  core::SessionFactory factory;
  factory.session_duration = 90;
  factory.content_duration = 90;
  factory.sim_core = core;
  const core::SessionConfig config = factory.config(
      services::service("H1"), BandwidthTrace::constant(3e6, 600));
  Simulator sim(config.sim_settings());
  Link link(sim, BandwidthTrace::constant(3e6, 600), config.rtt);
  core::HostedSession session(sim, link, config);
  session.start();
  std::vector<std::string> out;
  for (Seconds stop : stops) {
    sim.run_until(stop);
    const Seconds position = session.finish_light(sim.now()).final_position;
    out.push_back(format("%.17g", position));
  }
  return out;
}

TEST(SimulatorWakeHeap, SleepingPlayerIsCaughtUpWhenRunUntilReturns) {
  std::vector<Seconds> stops;
  for (Seconds t = 3.33; t < 90; t += 3.33) stops.push_back(t);
  const std::vector<std::string> fixed =
      positions_at(SimCore::kFixedTickReference, stops);
  EXPECT_EQ(positions_at(SimCore::kEvent, stops), fixed);
  EXPECT_NE(fixed.front(), fixed.back());  // playback did advance
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
