// Max-min fairness properties at N > 2 flows, on raw demand vectors (the
// extracted max_min_shares free function) and on the live Link, plus the
// population-critical regression: a departing flow's share redistributes to
// the survivors on the same tick it detaches.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/link.h"
#include "net/simulator.h"
#include "net/tcp_connection.h"

namespace vodx::net {
namespace {

std::vector<Bps> grants_for(const std::vector<Bps>& demands, Bps capacity) {
  std::vector<Bps> grants;
  std::vector<std::size_t> scratch;
  max_min_shares(demands, capacity, grants, scratch);
  return grants;
}

double sum(const std::vector<Bps>& v) {
  double total = 0;
  for (Bps x : v) total += x;
  return total;
}

// --- max_min_shares on raw demand vectors --------------------------------

TEST(MaxMinShares, EqualDemandsGetEqualGrants) {
  for (int n : {3, 5, 8, 17}) {
    const std::vector<Bps> demands(n, 10e6);
    const std::vector<Bps> grants = grants_for(demands, 6e6);
    ASSERT_EQ(grants.size(), demands.size());
    for (Bps g : grants) EXPECT_DOUBLE_EQ(g, grants[0]);
    EXPECT_NEAR(sum(grants), 6e6, 1.0);
  }
}

TEST(MaxMinShares, ZeroDemandGetsZeroAndCostsNothing) {
  const std::vector<Bps> demands = {5e6, 0, 5e6, 0, 5e6};
  const std::vector<Bps> grants = grants_for(demands, 3e6);
  EXPECT_DOUBLE_EQ(grants[1], 0);
  EXPECT_DOUBLE_EQ(grants[3], 0);
  EXPECT_DOUBLE_EQ(grants[0], 1e6);
  EXPECT_DOUBLE_EQ(grants[2], 1e6);
  EXPECT_DOUBLE_EQ(grants[4], 1e6);
}

TEST(MaxMinShares, SmallDemandsSatisfiedSurplusGoesToBigOnes) {
  // Water-filling: the two small flows get all they ask; the rest split
  // the remainder evenly.
  const std::vector<Bps> demands = {1e5, 8e6, 2e5, 8e6, 8e6};
  const std::vector<Bps> grants = grants_for(demands, 6e6);
  EXPECT_DOUBLE_EQ(grants[0], 1e5);
  EXPECT_DOUBLE_EQ(grants[2], 2e5);
  const Bps rest = (6e6 - 3e5) / 3;
  EXPECT_NEAR(grants[1], rest, 1.0);
  EXPECT_NEAR(grants[3], rest, 1.0);
  EXPECT_NEAR(grants[4], rest, 1.0);
}

TEST(MaxMinShares, ConservationAndDemandBound) {
  // Pseudo-random demand vectors: grants never exceed demand, never exceed
  // capacity in total, and fill the link whenever demand can.
  std::uint64_t state = 42;
  auto next = [&] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 33) / static_cast<double>(1u << 31);
  };
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Bps> demands;
    const int n = 2 + trial % 9;
    for (int i = 0; i < n; ++i) demands.push_back(next() * 12e6);
    const Bps capacity = 1e5 + next() * 10e6;
    const std::vector<Bps> grants = grants_for(demands, capacity);
    for (std::size_t i = 0; i < demands.size(); ++i) {
      EXPECT_GE(grants[i], 0);
      EXPECT_LE(grants[i], demands[i] + 1e-6);
    }
    EXPECT_LE(sum(grants), capacity + 1e-6);
    if (sum(demands) >= capacity) {
      EXPECT_NEAR(sum(grants), capacity, capacity * 1e-9);
    } else {
      EXPECT_NEAR(sum(grants), sum(demands), sum(demands) * 1e-9);
    }
  }
}

TEST(MaxMinShares, WaterFillingMonotoneInCapacity) {
  // More capacity never shrinks anyone's grant.
  const std::vector<Bps> demands = {3e5, 9e6, 1e6, 5e6, 2e6, 7e6};
  std::vector<Bps> previous(demands.size(), 0);
  for (Bps capacity = 5e5; capacity <= 2.5e7; capacity += 5e5) {
    const std::vector<Bps> grants = grants_for(demands, capacity);
    for (std::size_t i = 0; i < demands.size(); ++i) {
      EXPECT_GE(grants[i], previous[i] - 1e-6)
          << "flow " << i << " at capacity " << capacity;
    }
    previous = grants;
  }
}

// --- the live Link at N > 2 flows ----------------------------------------

TEST(LinkFairness, FourBackloggedFlowsSplitEvenly) {
  Simulator sim(0.01);
  Link link(sim, BandwidthTrace::constant(4e6, 600));
  std::vector<std::unique_ptr<TcpConnection>> conns;
  for (int i = 0; i < 4; ++i) {
    conns.push_back(std::make_unique<TcpConnection>(
        TcpConfig{}, "c" + std::to_string(i)));
    link.attach(conns.back().get());
    conns.back()->start_transfer(0, 500'000'000, [] {});
  }
  sim.run_until(30);
  const Bytes base = conns[0]->lifetime_delivered();
  EXPECT_GT(base, 0);
  for (const auto& conn : conns) {
    const double ratio = static_cast<double>(conn->lifetime_delivered()) /
                         static_cast<double>(base);
    EXPECT_NEAR(ratio, 1.0, 0.05);
  }
  const double total = 8.0 * (4 * static_cast<double>(base));
  EXPECT_GT(total, 0.9 * 4e6 * 30);
}

TEST(LinkFairness, DetachedShareRedistributesSameTick) {
  // Three backlogged flows split a 3 Mbps link ~1 Mbps each. When one
  // departs (population session ending), the survivors' very next tick
  // must already run at the two-way share — no decaying ghost allocation.
  Simulator sim(0.01);
  Link link(sim, BandwidthTrace::constant(3e6, 600));
  auto a = std::make_unique<TcpConnection>(TcpConfig{}, "a");
  auto b = std::make_unique<TcpConnection>(TcpConfig{}, "b");
  auto c = std::make_unique<TcpConnection>(TcpConfig{}, "c");
  for (TcpConnection* conn : {a.get(), b.get(), c.get()}) {
    link.attach(conn);
    conn->start_transfer(0, 500'000'000, [] {});
  }
  sim.run_until(20);  // well past slow start: three-way split regime
  EXPECT_EQ(link.attached(), 3);

  a->abort_transfer();
  link.detach(a.get());
  a.reset();
  EXPECT_EQ(link.attached(), 2);

  // Immediately after the detach (no grace window), the survivors must
  // carry the full link between the two of them.
  const Bytes b_before = b->lifetime_delivered();
  const Bytes c_before = c->lifetime_delivered();
  sim.run_until(22);
  const double b_rate = 8.0 * (b->lifetime_delivered() - b_before) / 2.0;
  const double c_rate = 8.0 * (c->lifetime_delivered() - c_before) / 2.0;
  EXPECT_NEAR(b_rate, 1.5e6, 0.05 * 1.5e6);
  EXPECT_NEAR(c_rate, 1.5e6, 0.05 * 1.5e6);
}

TEST(LinkFairness, DetachIsIdempotent) {
  Simulator sim(0.01);
  Link link(sim, BandwidthTrace::constant(2e6, 600));
  TcpConnection a({}, "a");
  TcpConnection b({}, "b");
  link.attach(&a);
  link.attach(&b);
  b.start_transfer(0, 1'000'000, [] {});
  link.detach(&a);
  link.detach(&a);  // double detach of the same flow: harmless
  EXPECT_EQ(link.attached(), 1);
  sim.run_until(10);
  EXPECT_EQ(b.lifetime_delivered(), 1'000'000);
}

}  // namespace
}  // namespace vodx::net
