// Property tests for the arena-backed event queue and the tick-skipping
// run loop: FIFO among same-instant events, cancel semantics across slot
// reuse, scheduling from inside handlers, monotone time, skip accounting,
// and the event-granularity watchdogs.
#include "net/simulator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace vodx::net {
namespace {

TEST(EventQueue, SameInstantEventsFireInScheduleOrder) {
  for (const SimCore core :
       {SimCore::kEvent, SimCore::kFixedTickReference}) {
    Simulator sim(0.01);
    sim.set_core(core);
    std::vector<int> order;
    for (int i = 0; i < 64; ++i) {
      sim.schedule(0.5, [&order, i] { order.push_back(i); });
    }
    sim.run_until(1.0);
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueue, InterleavedDueTimesStillFifoWithinAnInstant) {
  Simulator sim(0.01);
  std::vector<std::string> order;
  // Schedule out of order across two instants; each instant must preserve
  // its own schedule order.
  sim.schedule(0.5, [&] { order.push_back("a0"); });
  sim.schedule(0.2, [&] { order.push_back("b0"); });
  sim.schedule(0.5, [&] { order.push_back("a1"); });
  sim.schedule(0.2, [&] { order.push_back("b1"); });
  sim.schedule(0.5, [&] { order.push_back("a2"); });
  sim.run_until(1.0);
  EXPECT_EQ(order, (std::vector<std::string>{"b0", "b1", "a0", "a1", "a2"}));
}

TEST(EventQueue, CancelBeforeFirePreventsFiring) {
  Simulator sim(0.01);
  bool fired = false;
  const std::uint64_t id = sim.schedule(0.5, [&] { fired = true; });
  sim.cancel(id);
  sim.run_until(1.0);
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsANoOp) {
  Simulator sim(0.01);
  int fired = 0;
  const std::uint64_t id = sim.schedule(0.1, [&] { ++fired; });
  sim.run_until(0.5);
  EXPECT_EQ(fired, 1);
  sim.cancel(id);  // must not throw or disturb anything
  bool later = false;
  sim.schedule(0.1, [&] { later = true; });
  sim.run_until(1.0);
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(later);
}

TEST(EventQueue, StaleCancelDoesNotHitAReusedSlot) {
  Simulator sim(0.01);
  bool a = false;
  bool b = false;
  const std::uint64_t id_a = sim.schedule(0.3, [&] { a = true; });
  sim.cancel(id_a);  // frees the arena slot before anything fires
  // The next schedule reuses the freed slot but gets a fresh id.
  const std::uint64_t id_b = sim.schedule(0.3, [&] { b = true; });
  EXPECT_NE(id_a, id_b);
  sim.cancel(id_a);  // stale id: must not cancel b
  sim.run_until(1.0);
  EXPECT_FALSE(a);
  EXPECT_TRUE(b);
}

TEST(EventQueue, CancelFromWithinASameInstantHandler) {
  Simulator sim(0.01);
  bool second = false;
  std::uint64_t second_id = 0;
  sim.schedule(0.5, [&] { sim.cancel(second_id); });
  second_id = sim.schedule(0.5, [&] { second = true; });
  sim.run_until(1.0);
  EXPECT_FALSE(second);
}

TEST(EventQueue, ScheduleFromWithinAHandlerZeroDelayFiresSameInstant) {
  Simulator sim(0.01);
  std::vector<Seconds> at;
  sim.schedule(0.5, [&] {
    at.push_back(sim.now());
    sim.schedule(0, [&] { at.push_back(sim.now()); });
  });
  sim.run_until(1.0);
  ASSERT_EQ(at.size(), 2u);
  EXPECT_DOUBLE_EQ(at[0], at[1]);
}

TEST(EventQueue, ScheduleFromWithinAHandlerFutureDelayFiresLater) {
  Simulator sim(0.01);
  std::vector<Seconds> at;
  sim.schedule(0.5, [&] {
    sim.schedule(0.25, [&] { at.push_back(sim.now()); });
  });
  sim.run_until(1.0);
  ASSERT_EQ(at.size(), 1u);
  EXPECT_NEAR(at[0], 0.75, 1e-9);
}

TEST(EventQueue, NowIsMonotoneAcrossAScatterOfEvents) {
  Simulator sim(0.01);
  std::vector<Seconds> stamps;
  // Deterministic pseudo-random scatter of due times, scheduled out of
  // order (linear congruential mix — no global RNG in tests).
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 200; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const Seconds due = static_cast<double>(x % 1000) / 100.0;  // [0, 10)
    sim.schedule(due, [&] { stamps.push_back(sim.now()); });
  }
  sim.run_until(10.0);
  ASSERT_EQ(stamps.size(), 200u);
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_LE(stamps[i - 1], stamps[i]);
  }
  // Every firing instant is a grid point: the first tick at or after the
  // due time.
  for (const Seconds t : stamps) {
    const double ticks = t / 0.01;
    EXPECT_NEAR(ticks, std::round(ticks), 1e-6);
  }
}

TEST(EventQueue, EventCoreSkipsInertTicksTheReferenceExecutes) {
  Simulator event_sim(0.01);
  event_sim.set_core(SimCore::kEvent);
  Simulator fixed_sim(0.01);
  fixed_sim.set_core(SimCore::kFixedTickReference);
  int event_fired = 0;
  int fixed_fired = 0;
  event_sim.schedule(5.0, [&] { ++event_fired; });
  fixed_sim.schedule(5.0, [&] { ++fixed_fired; });
  event_sim.run_until(10.0);
  fixed_sim.run_until(10.0);
  EXPECT_EQ(event_fired, 1);
  EXPECT_EQ(fixed_fired, 1);
  // Same span covered, same clock — but the event core only executed the
  // one tick the event made non-inert.
  EXPECT_EQ(event_sim.ticks_covered(), fixed_sim.ticks_covered());
  EXPECT_DOUBLE_EQ(event_sim.now(), fixed_sim.now());
  EXPECT_EQ(fixed_sim.ticks_executed(), fixed_sim.ticks_covered());
  EXPECT_EQ(event_sim.ticks_executed(), 1u);
}

// A TickClient whose wake is always "far in the future": the run loop may
// skip every tick, but fast_forward must still account the skipped span.
class DormantClient : public TickClient {
 public:
  explicit DormantClient(Simulator& sim) { sim.add_tick_client(this); }
  void tick(Seconds, Seconds) override { ++ticks; }
  Seconds next_wake(Seconds) override { return kNeverWakes; }
  void fast_forward(Seconds, Seconds dt, std::uint64_t n) override {
    skipped += n;
    coasted += static_cast<double>(n) * dt;
  }
  int ticks = 0;
  std::uint64_t skipped = 0;
  Seconds coasted = 0;
};

TEST(EventQueue, DormantClientsAreFastForwardedOverTheWholeSpan) {
  Simulator sim(0.01);
  DormantClient client(sim);
  sim.run_until(2.0);
  EXPECT_EQ(client.ticks, 0);
  EXPECT_EQ(client.skipped, 200u);
  EXPECT_NEAR(client.coasted, 2.0, 1e-9);
  EXPECT_EQ(sim.ticks_covered(), 200u);
  EXPECT_EQ(sim.ticks_executed(), 0u);
}

TEST(EventQueue, ClientWakeBoundsTheSkipNeverLater) {
  // A client asking to wake at 1.0 s must execute a tick at (not after)
  // 1.0 s even though everything before is skipped.
  class WakeOnce : public TickClient {
   public:
    explicit WakeOnce(Simulator& sim) { sim.add_tick_client(this); }
    void tick(Seconds now, Seconds) override {
      if (first_tick < 0) first_tick = now;
    }
    Seconds next_wake(Seconds) override {
      return first_tick < 0 ? 1.0 : kNeverWakes;
    }
    Seconds first_tick = -1;
  };
  Simulator sim(0.01);
  WakeOnce client(sim);
  sim.run_until(2.0);
  EXPECT_NEAR(client.first_tick, 1.0, 1e-9);
  EXPECT_GE(sim.ticks_covered(), sim.ticks_executed());
}

TEST(EventQueue, ZeroDelayLivelockTripsOnTheEventCore) {
  Simulator sim(0.01);
  sim.set_core(SimCore::kEvent);
  sim.set_max_events_per_instant(100);
  std::function<void()> rearm = [&] { sim.schedule(0, rearm); };
  sim.schedule(0.1, rearm);
  try {
    sim.run_until(1.0);
    FAIL() << "expected WatchdogError";
  } catch (const WatchdogError& e) {
    EXPECT_NE(std::string(e.what()).find("zero-delay event livelock"),
              std::string::npos);
  }
}

TEST(EventQueue, EventBurstsBelowTheInstantLimitPass) {
  Simulator sim(0.01);
  sim.set_max_events_per_instant(100);
  int fired = 0;
  for (int i = 0; i < 99; ++i) sim.schedule(0.5, [&] { ++fired; });
  sim.run_until(1.0);
  EXPECT_EQ(fired, 99);
}

TEST(EventQueue, ArenaReusesSlotsAcrossManyScheduleCancelCycles) {
  Simulator sim(0.01);
  int fired = 0;
  // Thousands of churn cycles: every cancelled event frees its slot for
  // the next schedule; the survivors must all fire exactly once.
  for (int round = 0; round < 1000; ++round) {
    const std::uint64_t doomed =
        sim.schedule(0.9, [&] { fired += 1000000; });
    sim.cancel(doomed);
    sim.schedule(0.5, [&] { ++fired; });
  }
  sim.run_until(1.0);
  EXPECT_EQ(fired, 1000);
}

}  // namespace
}  // namespace vodx::net
