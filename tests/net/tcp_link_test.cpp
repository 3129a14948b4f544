#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/link.h"
#include "net/simulator.h"
#include "net/tcp_connection.h"

namespace vodx::net {
namespace {

struct Harness {
  explicit Harness(Bps bandwidth, Seconds duration = 600, Seconds rtt = 0.07)
      : sim(0.01),
        link(sim, BandwidthTrace::constant(bandwidth, duration), rtt) {}

  Simulator sim;
  Link link;
};

TEST(Tcp, TransferCompletesAndDeliversBytes) {
  Harness h(8e6);
  TcpConnection conn({}, "c");
  h.link.attach(&conn);
  bool done = false;
  conn.start_transfer(h.sim.now(), 1'000'000, [&] { done = true; });
  h.sim.run_until(10);
  EXPECT_TRUE(done);
  EXPECT_EQ(conn.lifetime_delivered(), 1'000'000);
  h.link.detach(&conn);
}

TEST(Tcp, FirstByteWaitsHandshakePlusRequestRtt) {
  Harness h(100e6);  // fast link: duration dominated by latency
  TcpConfig config;
  config.rtt = 0.1;
  TcpConnection conn(config, "c");
  h.link.attach(&conn);
  Seconds completed = -1;
  conn.start_transfer(h.sim.now(), 1000, [&] { completed = h.sim.now(); });
  h.sim.run_until(5);
  // Handshake (1 RTT) + request (1 RTT) + ~instant transfer.
  EXPECT_GE(completed, 0.2);
  EXPECT_LE(completed, 0.3);
}

TEST(Tcp, PersistentReuseSkipsHandshake) {
  Harness h(100e6);
  TcpConfig config;
  config.rtt = 0.1;
  TcpConnection conn(config, "c");
  h.link.attach(&conn);

  Seconds first = -1;
  Seconds second = -1;
  conn.start_transfer(h.sim.now(), 1000, [&] { first = h.sim.now(); });
  h.sim.run_until(1);
  conn.start_transfer(h.sim.now(), 1000, [&] { second = h.sim.now(); });
  h.sim.run_until(2);
  // Second request: only the request RTT, no handshake.
  EXPECT_NEAR(second - 1.0, first - 0.1, 0.05);
}

TEST(Tcp, NonPersistentClosesAfterResponse) {
  Harness h(8e6);
  TcpConfig config;
  config.persistent = false;
  TcpConnection conn(config, "c");
  h.link.attach(&conn);
  bool done = false;
  conn.start_transfer(h.sim.now(), 10'000, [&] { done = true; });
  h.sim.run_until(5);
  EXPECT_TRUE(done);
  EXPECT_FALSE(conn.connected());
}

TEST(Tcp, SlowStartRampsThroughput) {
  // On a fat link, early progress is cwnd-limited: the first 100 ms
  // deliver far less than the link could carry.
  Harness h(50e6);
  TcpConnection conn({}, "c");
  h.link.attach(&conn);
  conn.start_transfer(h.sim.now(), 50'000'000, [] {});
  h.sim.run_until(0.3);  // past handshake+request (0.14 s)
  const Bytes early = conn.transfer_delivered();
  EXPECT_GT(early, 0);
  EXPECT_LT(early, bytes_for(50e6, 0.16));  // well under line rate
  h.sim.run_until(3.0);
  // After ramp-up the rate approaches the link rate.
  const Bps late_rate = rate_of(conn.transfer_delivered() - early, 2.7);
  EXPECT_GT(late_rate, 0.85 * 50e6);
}

TEST(Tcp, IdleRestartSlowsFirstSegmentAfterPause) {
  Harness h(20e6);
  TcpConnection conn({}, "c");
  h.link.attach(&conn);
  conn.start_transfer(h.sim.now(), 5'000'000, [] {});
  h.sim.run_until(5);
  const Bytes before_pause = conn.cwnd();
  EXPECT_GT(before_pause, kInitialCwnd);
  // Long idle, then a new transfer: cwnd must be back at initial.
  h.sim.run_until(15);
  conn.start_transfer(h.sim.now(), 1000, [] {});
  EXPECT_EQ(conn.cwnd(), kInitialCwnd);
}

TEST(Tcp, AbortStopsDeliveryAndClosesConnection) {
  Harness h(1e6);
  TcpConnection conn({}, "c");
  h.link.attach(&conn);
  bool done = false;
  conn.start_transfer(h.sim.now(), 10'000'000, [&] { done = true; });
  h.sim.run_until(2);
  const Bytes partial = conn.lifetime_delivered();
  EXPECT_GT(partial, 0);
  conn.abort_transfer();
  EXPECT_FALSE(conn.connected());
  h.sim.run_until(4);
  EXPECT_FALSE(done);
  EXPECT_EQ(conn.lifetime_delivered(), partial);
}

TEST(Link, FairShareBetweenTwoFlows) {
  Harness h(2e6);
  TcpConnection a({}, "a");
  TcpConnection b({}, "b");
  h.link.attach(&a);
  h.link.attach(&b);
  a.start_transfer(h.sim.now(), 50'000'000, [] {});
  b.start_transfer(h.sim.now(), 50'000'000, [] {});
  h.sim.run_until(30);
  const double ratio = static_cast<double>(a.lifetime_delivered()) /
                       static_cast<double>(b.lifetime_delivered());
  EXPECT_NEAR(ratio, 1.0, 0.05);
  // Together they saturate the link.
  const Bytes total = a.lifetime_delivered() + b.lifetime_delivered();
  EXPECT_GT(total, 0.9 * 2e6 * 30 / 8);
}

TEST(Link, IdleFlowLeavesCapacityToActiveOne) {
  Harness h(2e6);
  TcpConnection active({}, "active");
  TcpConnection idle({}, "idle");
  h.link.attach(&active);
  h.link.attach(&idle);
  active.start_transfer(h.sim.now(), 50'000'000, [] {});
  h.sim.run_until(20);
  // The attached-but-idle connection must not cost the active one anything.
  EXPECT_GT(active.lifetime_delivered(), 0.9 * 2e6 * 20 / 8);
  EXPECT_EQ(idle.lifetime_delivered(), 0);
}

TEST(Link, TotalDeliveredSurvivesDetach) {
  Harness h(8e6);
  auto conn = std::make_unique<TcpConnection>(TcpConfig{}, "c");
  h.link.attach(conn.get());
  conn->start_transfer(h.sim.now(), 100'000, [] {});
  h.sim.run_until(2);
  h.link.detach(conn.get());
  EXPECT_EQ(h.link.total_delivered(), 100'000);
}

// Property: over any trace, total bytes delivered never exceed what the
// link could physically carry.
class Conservation : public ::testing::TestWithParam<int> {};

TEST_P(Conservation, NeverExceedsLinkCapacity) {
  std::vector<Bps> samples;
  for (int i = 0; i < 60; ++i) {
    samples.push_back(2e5 + 1e5 * ((i * GetParam()) % 13));
  }
  Simulator sim(0.01);
  Link link(sim, BandwidthTrace::per_second(samples));
  std::vector<std::unique_ptr<TcpConnection>> conns;
  for (int i = 0; i < 3; ++i) {
    conns.push_back(std::make_unique<TcpConnection>(
        TcpConfig{}, "c" + std::to_string(i)));
    link.attach(conns.back().get());
    conns.back()->start_transfer(0, 1'000'000'000, [] {});
  }
  sim.run_until(60);
  const double capacity_bits =
      link.trace().bits_between(0, 60) * (1 + 1e-6) + 8 * 3 * 14600;
  EXPECT_LE(static_cast<double>(link.total_delivered()) * 8, capacity_bits);
  EXPECT_GT(static_cast<double>(link.total_delivered()) * 8,
            0.8 * capacity_bits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Conservation,
                         ::testing::Values(1, 3, 5, 7, 9, 11, 13));

}  // namespace
}  // namespace vodx::net
