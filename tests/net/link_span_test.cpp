// Span property test: a link that sleeps through the spans it predicts and
// replays them must be indistinguishable from one that ticks every grid
// tick. Seeded random scenarios (1, 2 and 8 connections; random transfer
// sizes; handshakes, request waits and injected first-byte latency; traces
// with steps, outages and trickles; transfers started mid-tick and from
// events; aborts; link byte-counter reads from events and from a client
// on either side of the link's registration slot) run on both cores, and
// every connection's history must match exactly. A tower-shaped family
// (24-40 connections on one link, completion callbacks that start, attach
// and detach connections on either side of the completing one) does the
// same, and both families must also match a reference link that ticks
// every connection through the public demand(), max_min_shares and
// advance() alone. Fixed scenarios then
// drive each of the replay's paths (the closed forms of TcpConnection::coast
// and the per-tick replay) and check that each is taken and exact, and a
// traced one checks the link's cached trace piece against the trace on
// every tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "net/link.h"
#include "net/simulator.h"
#include "net/tcp_connection.h"
#include "obs/export.h"
#include "obs/observer.h"

namespace vodx::net {
namespace {

constexpr Seconds kHorizon = 30;

/// What one connection did, as seen from outside the link.
struct ConnHistory {
  std::vector<Seconds> completed_at;
  std::vector<Seconds> waits;        ///< transfer_wait() at each completion
  std::vector<Bytes> cwnd_at_end;    ///< cwnd() at each completion
  std::vector<Bytes> aborted_with;   ///< transfer_delivered() at each abort
  Bytes lifetime = 0;
  Bytes cwnd = 0;

  bool operator==(const ConnHistory&) const = default;
};

struct Outcome {
  std::vector<ConnHistory> conns;
  std::vector<std::uint64_t> tallies;  ///< DeliveryTally::ticks per group
  std::vector<Bytes> reads;            ///< Link::total_delivered() readings
  std::string tcp_trace;               ///< traced runs: every tcp/link event
  std::vector<Seconds> grid;           ///< traced path runs: every tick's time
  /// Traced path runs: the link's link.capacity_mbps counter, (time, value).
  std::vector<std::pair<Seconds, double>> capacity;
  SimCounters counters;
  SpanReplayCounts replay;             ///< the link's replay paths
};

/// Ticks every attached connection on every grid tick through the public
/// interface alone: demand(), max_min_shares and advance(), in snapshot
/// order, skipping a connection a callback detached mid-tick. It shares no
/// code with the Link's allocation shortcuts, spans or replay, so a Link
/// that matches it bit for bit allocates and advances exactly. Run it on the
/// fixed-tick core: it never pokes, so it could not catch up.
class ReferenceLink : public TickClient {
 public:
  ReferenceLink(Simulator& sim, BandwidthTrace trace)
      : trace_(std::move(trace)) {
    sim.add_tick_client(this);
  }

  void attach(TcpConnection* connection) {
    connections_.push_back(connection);
  }
  void detach(TcpConnection* connection) {
    const auto it =
        std::find(connections_.begin(), connections_.end(), connection);
    if (it == connections_.end()) return;
    delivered_by_detached_ += connection->lifetime_delivered();
    connections_.erase(it);
  }
  Bytes total_delivered() const {
    Bytes total = delivered_by_detached_;
    for (const TcpConnection* c : connections_) {
      total += c->lifetime_delivered();
    }
    return total;
  }

  void tick(Seconds now, Seconds dt) override {
    // Connections a callback attaches join on the next tick.
    const std::vector<TcpConnection*> snapshot = connections_;
    std::vector<Bps> demands;
    for (const TcpConnection* c : snapshot) demands.push_back(c->demand());
    std::vector<Bps> grants;
    std::vector<std::size_t> scratch;
    max_min_shares(demands, trace_.at(now), grants, scratch);
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
      if (std::find(connections_.begin(), connections_.end(), snapshot[i]) ==
          connections_.end()) {
        continue;
      }
      snapshot[i]->advance(now, dt, grants[i], grants[i] + 1e-6 < demands[i]);
    }
  }
  Seconds next_wake(Seconds now) override { return now; }

 private:
  BandwidthTrace trace_;
  std::vector<TcpConnection*> connections_;
  Bytes delivered_by_detached_ = 0;
};

/// A client that reads the link's byte counter on its own schedule, as the
/// population sampler does.
template <typename L>
class Reader : public TickClient {
 public:
  Reader(L*& link, std::vector<Bytes>& reads, Seconds every)
      : link_(link), reads_(reads), every_(every) {}

  void tick(Seconds now, Seconds) override {
    if (now + 1e-9 < next_) return;
    reads_.push_back(link_->total_delivered());
    next_ += every_;
  }
  Seconds next_wake(Seconds) override { return next_; }

 private:
  L*& link_;
  std::vector<Bytes>& reads_;
  Seconds every_;
  Seconds next_ = 0;
};

/// One seeded scenario, rebuilt identically for each run, on a Link or a
/// ReferenceLink (untraced).
template <typename L = Link>
Outcome run_scenario(std::uint64_t seed, int n_conns, SimCore core,
                     bool traced) {
  Rng rng(seed * 1000 + static_cast<std::uint64_t>(n_conns));
  // A 1 Hz trace with steps, an outage and a trickle (a share too small for
  // the clamped-cwnd equal-split bound).
  std::vector<Bps> samples;
  for (int s = 0; s < static_cast<int>(kHorizon); ++s) {
    const double pick = rng.uniform(0, 1);
    samples.push_back(pick < 0.08   ? 0
                      : pick < 0.16 ? rng.uniform(500, 4000)
                                    : rng.uniform(0.3e6, 12e6));
  }
  const BandwidthTrace trace = BandwidthTrace::per_second(samples);

  Outcome out;
  out.conns.resize(static_cast<std::size_t>(n_conns));
  const int groups = (n_conns + 1) / 2;
  std::vector<DeliveryTally> tallies(static_cast<std::size_t>(groups));

  Simulator sim(kTick);
  sim.set_core(core);
  obs::Observer observer;
  if (traced) sim.set_observer(&observer);

  L* link_ptr = nullptr;
  const bool reader_first = rng.uniform(0, 1) < 0.5;
  Reader reader(link_ptr, out.reads, rng.uniform(0.2, 1.5));
  if (reader_first) sim.add_tick_client(&reader);
  L link(sim, trace);
  link_ptr = &link;
  if (!reader_first) sim.add_tick_client(&reader);
  if constexpr (std::is_same_v<L, Link>) {
    if (traced) link.set_observer(&observer);
  }

  std::vector<std::unique_ptr<TcpConnection>> conns;
  for (int i = 0; i < n_conns; ++i) {
    TcpConfig config;
    config.persistent = rng.uniform(0, 1) < 0.7;
    if (rng.uniform(0, 1) < 0.25) config.rtt = rng.uniform(0.02, 0.2);
    conns.push_back(
        std::make_unique<TcpConnection>(config, "c" + std::to_string(i)));
    if (traced) conns.back()->set_observer(&observer);
    conns.back()->set_delivery_tally(&tallies[static_cast<std::size_t>(i / 2)]);
    link.attach(conns.back().get());
  }

  // Each connection runs a chain of transfers: the next one starts inside
  // the completion (mid-tick, in the link's own tick) or from an event a
  // random gap later.
  std::function<void(int)> start = [&](int i) {
    TcpConnection& c = *conns[static_cast<std::size_t>(i)];
    if (c.busy() || sim.now() >= kHorizon) return;
    // Log-uniform sizes, 1 B to 2 MB: many spans end in a completion.
    const Bytes bytes =
        static_cast<Bytes>(std::exp(rng.uniform(0, std::log(2e6))));
    const Seconds extra = rng.uniform(0, 1) < 0.3 ? rng.uniform(0, 0.4) : 0;
    c.start_transfer(sim.now(), bytes, [&, i] {
      ConnHistory& h = out.conns[static_cast<std::size_t>(i)];
      const TcpConnection& done = *conns[static_cast<std::size_t>(i)];
      h.completed_at.push_back(sim.now());
      h.waits.push_back(done.transfer_wait());
      h.cwnd_at_end.push_back(done.cwnd());
      if (rng.uniform(0, 1) < 0.4) {
        start(i);
      } else {
        sim.schedule(rng.uniform(0, 0.8), [&, i] { start(i); });
      }
    }, extra);
  };
  for (int i = 0; i < n_conns; ++i) {
    sim.schedule(rng.uniform(0, 0.5), [&, i] { start(i); });
  }
  // Events at random instants: aborts, byte-counter reads and transfer
  // starts on whatever is idle.
  for (int k = 0; k < 40; ++k) {
    const Seconds at = rng.uniform(0, kHorizon);
    const int i = static_cast<int>(rng.uniform_int(0, n_conns - 1));
    const double kind = rng.uniform(0, 1);
    sim.schedule(at, [&, i, kind] {
      TcpConnection& c = *conns[static_cast<std::size_t>(i)];
      if (kind < 0.3) {
        if (!c.busy()) return;
        c.abort_transfer();
        out.conns[static_cast<std::size_t>(i)].aborted_with.push_back(
            c.transfer_delivered());
      } else if (kind < 0.7) {
        out.reads.push_back(link.total_delivered());
      } else {
        start(i);
      }
    });
  }

  sim.run_until(kHorizon);
  for (int i = 0; i < n_conns; ++i) {
    ConnHistory& h = out.conns[static_cast<std::size_t>(i)];
    h.lifetime = conns[static_cast<std::size_t>(i)]->lifetime_delivered();
    h.cwnd = conns[static_cast<std::size_t>(i)]->cwnd();
  }
  for (const DeliveryTally& t : tallies) out.tallies.push_back(t.ticks);
  out.reads.push_back(link.total_delivered());
  if (traced) {
    std::ostringstream jsonl;
    obs::write_jsonl(observer.trace, jsonl);
    out.tcp_trace = jsonl.str();
  }
  out.counters = sim.counters();
  if constexpr (std::is_same_v<L, Link>) out.replay = link.replay_counts();
  for (auto& c : conns) link.detach(c.get());
  return out;
}

void expect_same(const Outcome& event, const Outcome& fixed) {
  ASSERT_EQ(event.conns.size(), fixed.conns.size());
  for (std::size_t i = 0; i < event.conns.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "connection " << i);
    const ConnHistory& e = event.conns[i];
    const ConnHistory& f = fixed.conns[i];
    EXPECT_EQ(e.completed_at, f.completed_at);
    EXPECT_EQ(e.waits, f.waits);
    EXPECT_EQ(e.cwnd_at_end, f.cwnd_at_end);
    EXPECT_EQ(e.aborted_with, f.aborted_with);
    EXPECT_EQ(e.lifetime, f.lifetime);
    EXPECT_EQ(e.cwnd, f.cwnd);
  }
  EXPECT_EQ(event.tallies, fixed.tallies);
  EXPECT_EQ(event.reads, fixed.reads);
  // The tcp.transfer end events carry the sender/link-limited split and
  // the first-byte wait; the cwnd samples and link counters ride along.
  EXPECT_EQ(event.tcp_trace, fixed.tcp_trace);
  EXPECT_EQ(event.counters.ticks_covered, fixed.counters.ticks_covered);
  EXPECT_EQ(event.counters.events_fired, fixed.counters.events_fired);
}

void expect_identical(std::uint64_t seed, int n_conns, bool traced) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed << ", " << n_conns
                                  << " connections, traced " << traced);
  expect_same(run_scenario(seed, n_conns, SimCore::kEvent, traced),
              run_scenario(seed, n_conns, SimCore::kFixedTickReference,
                           traced));
}

/// What a tower scenario's callbacks did, to guard the family's reach.
struct TowerReach {
  int starts_before = 0;  ///< transfers started on an earlier connection
  int starts_after = 0;   ///< ... on a later one, advanced in the same tick
  int attached = 0;       ///< connections attached and started
  int detached = 0;       ///< connections detached, busy or not
};

/// A tower-shaped scenario: 24-40 connections share one cell-rate link, in
/// pairs that note one DeliveryTally (a session's video and audio), a fifth
/// of them at another rtt. Request waits carry injected first-byte latency,
/// so waits end inside the spans of the busy rest. A completion callback
/// chains the connection's next transfer, and may start a transfer on an
/// idle connection before or after it in the link's snapshot, attach and
/// start a spare connection, or detach one. Events abort, read the byte
/// counter and start transfers, as in run_scenario.
template <typename L = Link>
Outcome run_tower(std::uint64_t seed, SimCore core, bool traced,
                  TowerReach* reach = nullptr) {
  Rng rng(seed * 7919 + 40);
  const std::size_t initial =
      static_cast<std::size_t>(rng.uniform_int(24, 40));
  const std::size_t total = initial + 6;  // the rest are spares
  std::vector<Bps> samples;
  for (int s = 0; s < static_cast<int>(kHorizon); ++s) {
    samples.push_back(rng.uniform(0, 1) < 0.1 ? rng.uniform(0.3e6, 3e6)
                                              : rng.uniform(5e6, 40e6));
  }
  const BandwidthTrace trace = BandwidthTrace::per_second(samples);

  Outcome out;
  out.conns.resize(total);
  std::vector<DeliveryTally> tallies((total + 1) / 2);
  Simulator sim(kTick);
  sim.set_core(core);
  obs::Observer observer;
  if (traced) sim.set_observer(&observer);

  L* link_ptr = nullptr;
  const bool reader_first = rng.uniform(0, 1) < 0.5;
  Reader reader(link_ptr, out.reads, rng.uniform(0.2, 1.5));
  if (reader_first) sim.add_tick_client(&reader);
  L link(sim, trace);
  link_ptr = &link;
  if (!reader_first) sim.add_tick_client(&reader);
  if constexpr (std::is_same_v<L, Link>) {
    if (traced) link.set_observer(&observer);
  }

  // Index order is snapshot order: spares attach after every initial
  // connection, in index order.
  std::vector<std::unique_ptr<TcpConnection>> conns;
  std::vector<bool> attached(total, false);
  std::size_t next_spare = initial;
  for (std::size_t i = 0; i < total; ++i) {
    TcpConfig config;
    config.persistent = rng.uniform(0, 1) < 0.8;
    if (rng.uniform(0, 1) < 0.2) config.rtt = rng.uniform(0.03, 0.15);
    conns.push_back(
        std::make_unique<TcpConnection>(config, "c" + std::to_string(i)));
    if (traced) conns.back()->set_observer(&observer);
    conns.back()->set_delivery_tally(&tallies[i / 2]);
    if (i < initial) {
      link.attach(conns.back().get());
      attached[i] = true;
    }
  }

  std::function<void(std::size_t)> start = [&](std::size_t i) {
    TcpConnection& c = *conns[i];
    if (!attached[i] || c.busy() || sim.now() >= kHorizon) return;
    const Bytes bytes =
        static_cast<Bytes>(std::exp(rng.uniform(std::log(500), std::log(1.5e6))));
    const Seconds extra = rng.uniform(0, 1) < 0.5 ? rng.uniform(0, 0.3) : 0;
    c.start_transfer(sim.now(), bytes, [&, i] {
      ConnHistory& h = out.conns[i];
      h.completed_at.push_back(sim.now());
      h.waits.push_back(conns[i]->transfer_wait());
      h.cwnd_at_end.push_back(conns[i]->cwnd());
      const double pick = rng.uniform(0, 1);
      if (pick < 0.5) {
        const std::size_t j =
            static_cast<std::size_t>(rng.uniform_int(0, total - 1));
        if (j != i && attached[j] && !conns[j]->busy()) {
          if (reach != nullptr) ++(j < i ? reach->starts_before
                                         : reach->starts_after);
          start(j);
        }
      } else if (pick < 0.55) {
        if (next_spare < total) {
          const std::size_t j = next_spare++;
          link.attach(conns[j].get());
          attached[j] = true;
          if (reach != nullptr) ++reach->attached;
          start(j);
        }
      } else if (pick < 0.58) {
        const std::size_t j =
            static_cast<std::size_t>(rng.uniform_int(0, total - 1));
        if (j != i && attached[j]) {
          link.detach(conns[j].get());
          attached[j] = false;
          if (reach != nullptr) ++reach->detached;
        }
      }
      if (rng.uniform(0, 1) < 0.5) {
        start(i);
      } else {
        sim.schedule(rng.uniform(0, 0.6), [&, i] { start(i); });
      }
    }, extra);
  };
  for (std::size_t i = 0; i < initial; ++i) {
    sim.schedule(rng.uniform(0, 1), [&, i] { start(i); });
  }
  for (int k = 0; k < 60; ++k) {
    const Seconds at = rng.uniform(0, kHorizon);
    const std::size_t i =
        static_cast<std::size_t>(rng.uniform_int(0, total - 1));
    const double kind = rng.uniform(0, 1);
    sim.schedule(at, [&, i, kind] {
      TcpConnection& c = *conns[i];
      if (kind < 0.3) {
        if (!attached[i] || !c.busy()) return;
        c.abort_transfer();
        out.conns[i].aborted_with.push_back(c.transfer_delivered());
      } else if (kind < 0.6) {
        out.reads.push_back(link.total_delivered());
      } else {
        start(i);
      }
    });
  }

  sim.run_until(kHorizon);
  for (std::size_t i = 0; i < total; ++i) {
    out.conns[i].lifetime = conns[i]->lifetime_delivered();
    out.conns[i].cwnd = conns[i]->cwnd();
  }
  for (const DeliveryTally& t : tallies) out.tallies.push_back(t.ticks);
  out.reads.push_back(link.total_delivered());
  if (traced) {
    std::ostringstream jsonl;
    obs::write_jsonl(observer.trace, jsonl);
    out.tcp_trace = jsonl.str();
  }
  out.counters = sim.counters();
  if constexpr (std::is_same_v<L, Link>) out.replay = link.replay_counts();
  for (auto& c : conns) link.detach(c.get());
  return out;
}

/// A fixed scenario aimed at one replay path: each connection repeats
/// transfers of its own size, the next one started `gap` seconds after a
/// completion (a gap over 0.5 s restarts slow start), and notes the tally
/// of its group.
struct PathScenario {
  BandwidthTrace trace;
  std::vector<Bytes> sizes;   ///< one connection per size
  std::vector<int> groups;    ///< each connection's tally
  Seconds gap = 0;
};

/// Records the time of every grid tick: it is due on each one.
class GridClock : public TickClient {
 public:
  explicit GridClock(std::vector<Seconds>& times) : times_(times) {}
  void tick(Seconds now, Seconds) override { times_.push_back(now); }
  Seconds next_wake(Seconds now) override { return now; }

 private:
  std::vector<Seconds>& times_;
};

Outcome run_paths(const PathScenario& scenario, SimCore core,
                  bool traced = false) {
  const std::size_t n = scenario.sizes.size();
  Outcome out;
  out.conns.resize(n);
  std::vector<DeliveryTally> tallies(n);
  Simulator sim(kTick);
  sim.set_core(core);
  obs::Observer observer;
  GridClock clock(out.grid);
  if (traced) sim.set_observer(&observer);
  Link link(sim, scenario.trace);
  if (traced) {
    link.set_observer(&observer);
    sim.add_tick_client(&clock);
  }
  std::vector<std::unique_ptr<TcpConnection>> conns;
  for (std::size_t i = 0; i < n; ++i) {
    conns.push_back(
        std::make_unique<TcpConnection>(TcpConfig{}, "c" + std::to_string(i)));
    if (traced) conns.back()->set_observer(&observer);
    conns.back()->set_delivery_tally(
        &tallies[static_cast<std::size_t>(scenario.groups[i])]);
    link.attach(conns.back().get());
  }
  std::function<void(std::size_t)> start = [&](std::size_t i) {
    if (sim.now() >= kHorizon) return;
    conns[i]->start_transfer(sim.now(), scenario.sizes[i], [&, i] {
      ConnHistory& h = out.conns[i];
      h.completed_at.push_back(sim.now());
      h.waits.push_back(conns[i]->transfer_wait());
      h.cwnd_at_end.push_back(conns[i]->cwnd());
      sim.schedule(scenario.gap, [&, i] { start(i); });
    });
  };
  for (std::size_t i = 0; i < n; ++i) {
    sim.schedule(0.1 * static_cast<double>(i), [&, i] { start(i); });
  }
  sim.run_until(kHorizon);
  for (std::size_t i = 0; i < n; ++i) {
    out.conns[i].lifetime = conns[i]->lifetime_delivered();
    out.conns[i].cwnd = conns[i]->cwnd();
  }
  for (const DeliveryTally& t : tallies) out.tallies.push_back(t.ticks);
  out.reads.push_back(link.total_delivered());
  if (traced) {
    std::ostringstream jsonl;
    obs::write_jsonl(observer.trace, jsonl);
    out.tcp_trace = jsonl.str();
    observer.trace.for_each([&](const obs::Event& event) {
      if (std::string_view(event.name) == "link.capacity_mbps") {
        out.capacity.emplace_back(event.sim_time,
                                  obs::field_num(event, "value"));
      }
    });
  }
  out.counters = sim.counters();
  out.replay = link.replay_counts();
  for (auto& c : conns) link.detach(c.get());
  return out;
}

/// Runs `scenario` on both cores, requires them identical, and returns the
/// event core's replay counts.
SpanReplayCounts expect_paths_exact(const PathScenario& scenario) {
  const Outcome event = run_paths(scenario, SimCore::kEvent);
  expect_same(event, run_paths(scenario, SimCore::kFixedTickReference));
  // Nothing replays on the fixed core, which never lets the link sleep.
  return event.replay;
}

BandwidthTrace flat(Bps rate) {
  return BandwidthTrace::per_second(
      std::vector<Bps>(static_cast<std::size_t>(kHorizon), rate));
}

TEST(LinkSpans, OneConnectionReplaysExactly) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    expect_identical(seed, 1, false);
    expect_identical(seed, 1, true);
  }
}

TEST(LinkSpans, TwoConnectionsReplayExactly) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    expect_identical(seed, 2, false);
    expect_identical(seed, 2, true);
  }
}

TEST(LinkSpans, EightConnectionsReplayExactly) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    expect_identical(seed, 8, false);
    expect_identical(seed, 8, true);
  }
}

TEST(LinkSpans, TowersReplayExactly) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "tower seed " << seed);
    for (const bool traced : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "traced " << traced);
      expect_same(run_tower(seed, SimCore::kEvent, traced),
                  run_tower(seed, SimCore::kFixedTickReference, traced));
    }
  }
}

TEST(LinkSpans, TowersMatchTheReferenceLinkBitForBit) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE(::testing::Message() << "tower seed " << seed);
    const Outcome reference = run_tower<ReferenceLink>(
        seed, SimCore::kFixedTickReference, false);
    expect_same(run_tower(seed, SimCore::kEvent, false), reference);
    expect_same(run_tower(seed, SimCore::kFixedTickReference, false),
                reference);
  }
}

TEST(LinkSpans, SmallScenariosMatchTheReferenceLinkBitForBit) {
  for (const int n_conns : {1, 2, 8}) {
    for (std::uint64_t seed = 0; seed < 12; ++seed) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", "
                                        << n_conns << " connections");
      expect_same(run_scenario(seed, n_conns, SimCore::kEvent, false),
                  run_scenario<ReferenceLink>(
                      seed, n_conns, SimCore::kFixedTickReference, false));
    }
  }
}

TEST(LinkSpans, TowersExerciseCallbacksOnBothSidesOfTheSnapshot) {
  // Guards the tower family's reach: callbacks start transfers on earlier
  // and later connections, attach and detach, and the link sleeps.
  TowerReach reach;
  std::size_t completions = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const Outcome out = run_tower(seed, SimCore::kEvent, false, &reach);
    for (const ConnHistory& h : out.conns) completions += h.completed_at.size();
    EXPECT_GT(out.counters.fast_forwards, 0u);
    EXPECT_GT(out.replay.closed_form(), 0u);
    EXPECT_GT(out.replay.per_tick, 0u);
  }
  EXPECT_GT(completions, 2000u);
  EXPECT_GT(reach.starts_before, 50);
  EXPECT_GT(reach.starts_after, 50);
  EXPECT_GT(reach.attached, 20);
  EXPECT_GT(reach.detached, 20);
}

TEST(LinkSpans, ScenariosExerciseSpansCompletionsAndAborts) {
  // Guards the test's own reach: the scenarios complete and abort
  // transfers, and the event core really sleeps through spans.
  std::size_t completions = 0;
  std::size_t aborts = 0;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const Outcome out = run_scenario(seed, 8, SimCore::kEvent, false);
    for (const ConnHistory& h : out.conns) {
      completions += h.completed_at.size();
      aborts += h.aborted_with.size();
    }
    EXPECT_GT(out.counters.fast_forwards, 0u);
    EXPECT_LT(2 * out.counters.ticks_executed, out.counters.ticks_covered);
  }
  EXPECT_GT(completions, 1000u);
  EXPECT_GT(aborts, 40u);
}

TEST(LinkSpans, TrickleHoldsTheInitialWindowInClosedForm) {
  // 600 kbps puts the BDP cap under IW: every clamp lands on IW.
  const SpanReplayCounts counts =
      expect_paths_exact({flat(600e3), {40'000'000}, {0}});
  EXPECT_GT(counts.fixed_point, 1000u);
  EXPECT_GT(counts.waiting, 0u);  // the handshake and the request wait
}

TEST(LinkSpans, SaturatedStreamerTwoCyclesInClosedForm) {
  // 5 Mbps: clamp to the cap, one CA step above it, clamp again.
  const SpanReplayCounts counts =
      expect_paths_exact({flat(5e6), {40'000'000}, {0}});
  EXPECT_GT(counts.two_cycle, 1000u);
}

TEST(LinkSpans, ClimbAfterATraceStepUpRunsInClosedForm) {
  // 4 Mbps and 5 Mbps in turns of 5 s: after each step up the cwnd clamped
  // under the old cap still saturates the link and climbs in congestion
  // avoidance to the new cap; after each step down it clamps again.
  std::vector<Bps> trace;
  for (int s = 0; s < static_cast<int>(kHorizon); ++s) {
    trace.push_back((s / 5) % 2 == 0 ? 4e6 : 5e6);
  }
  const SpanReplayCounts counts = expect_paths_exact(
      {BandwidthTrace::per_second(trace), {40'000'000}, {0}});
  EXPECT_GT(counts.climb, 200u);
  EXPECT_GT(counts.two_cycle, 1000u);
}

TEST(LinkSpans, SlowStartLoneStreamerReplaysPerTick) {
  // 20 Mbps dwarfs an idle-restarted window: the lone streamer ramps
  // unsaturated, which only the per-tick replay covers.
  const SpanReplayCounts counts =
      expect_paths_exact({flat(20e6), {600'000}, {0}, 0.7});
  EXPECT_GT(counts.per_tick, 100u);
}

TEST(LinkSpans, TallySharedByClosedFormAndPerTickCountsEachTickOnce) {
  // One tally over a transfer past the closed form's 2^30-byte bound (so
  // replayed per tick) and one that coasts: both deliver on every tick of
  // the equal split's spans, and the tally counts each tick once.
  const SpanReplayCounts counts = expect_paths_exact(
      {flat(5e6), {Bytes{1} << 31, 300'000}, {0, 0}, 0.05});
  EXPECT_GT(counts.shared_tally, 100u);
  EXPECT_GT(counts.per_tick, 100u);
  EXPECT_GT(counts.closed_form(), 100u);
}

TEST(LinkSpans, CapacityMatchesTheTraceOnEveryTick) {
  // Pieces start at fractional times, two neighbours share a rate, and the
  // 4.37 s trace wraps six times over the horizon: accumulated grid ticks
  // land a rounding error either side of piece ends.
  const BandwidthTrace trace = BandwidthTrace::from_samples(
      {{0, 3e6}, {0.37, 8e6}, {1.13, 1.2e6}, {1.9, 1.2e6}, {2.71, 0},
       {3.05, 6e6}},
      4.37);
  const PathScenario scenario{trace, {3'000'000, 250'000}, {0, 1}, 0.3};
  const Outcome event = run_paths(scenario, SimCore::kEvent, true);
  const Outcome fixed =
      run_paths(scenario, SimCore::kFixedTickReference, true);
  expect_same(event, fixed);
  for (const Outcome* out : {&event, &fixed}) {
    // The capacity counter is emitted on change, on the tick the link
    // allocates with it: the value in force at a tick is the last one
    // emitted at or before it.
    ASSERT_GT(out->grid.size(), 2000u);
    std::size_t next = 0;
    double current = -1;
    int short_of_an_end = 0;
    for (const Seconds now : out->grid) {
      while (next < out->capacity.size() && out->capacity[next].first <= now) {
        current = out->capacity[next++].second;
      }
      ASSERT_EQ(current, trace.at(now) / 1e6) << "tick at " << now;
      if (trace.next_change_after(now) - now < 1e-9) ++short_of_an_end;
    }
    EXPECT_EQ(next, out->capacity.size());
    EXPECT_GT(short_of_an_end, 0);
  }
}

}  // namespace
}  // namespace vodx::net
