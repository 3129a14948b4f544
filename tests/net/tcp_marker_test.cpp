// The tcp.transfer / tcp.handshake / tcp.idle_restart trace markers are
// the raw evidence vodx::diag consumes; their fields are a contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/link.h"
#include "net/simulator.h"
#include "net/tcp_connection.h"
#include "obs/event.h"
#include "obs/observer.h"
#include "testing/trace.h"

namespace vodx::net {
namespace {

struct Harness {
  explicit Harness(Bps bandwidth, Seconds duration = 600, Seconds rtt = 0.07)
      : sim(0.01),
        link(sim, BandwidthTrace::constant(bandwidth, duration), rtt) {}

  Simulator sim;
  Link link;
};

std::vector<obs::Event> events_named(const obs::Observer& observer,
                                     const char* name, obs::EventKind kind) {
  std::vector<obs::Event> out;
  for (const obs::Event& e : testing::retained(observer.trace)) {
    if (e.kind == kind && std::string(e.name) == name) out.push_back(e);
  }
  return out;
}

double field(const obs::Event& e, const char* name) {
  const obs::Field* f = obs::find_field(e, name);
  EXPECT_NE(f, nullptr) << "missing field " << name << " on " << e.name;
  return f == nullptr ? -1 : f->num;
}

TEST(TcpMarkers, TransferEndCarriesTheDiagContract) {
  Harness h(8e6);
  obs::Observer observer;
  TcpConnection conn({}, "c");
  conn.set_observer(&observer);
  h.link.attach(&conn);
  conn.start_transfer(h.sim.now(), 500'000, [] {});
  h.sim.run_until(10);

  const std::vector<obs::Event> ends =
      events_named(observer, "tcp.transfer", obs::EventKind::kSpanEnd);
  ASSERT_EQ(ends.size(), 1u);
  const obs::Event& end = ends.front();
  EXPECT_EQ(end.track, conn.obs_track());
  // Cold connection: first byte waits handshake + request, ~2 RTTs.
  EXPECT_NEAR(field(end, "wait_s"), 0.14, 0.03);
  EXPECT_DOUBLE_EQ(field(end, "extra_wait_s"), 0);
  EXPECT_DOUBLE_EQ(field(end, "restart"), 0);
  // Streaming time splits exhaustively into sender- vs link-limited.
  EXPECT_GE(field(end, "sender_limited_s"), 0);
  EXPECT_GT(field(end, "link_limited_s"), 0);
  const std::vector<obs::Event> begins =
      events_named(observer, "tcp.transfer", obs::EventKind::kSpanBegin);
  ASSERT_EQ(begins.size(), 1u);
  const double streaming =
      end.sim_time - begins.front().sim_time - field(end, "wait_s");
  EXPECT_NEAR(field(end, "sender_limited_s") + field(end, "link_limited_s"),
              streaming, 0.05);
}

TEST(TcpMarkers, HandshakeMarksColdVersusRestart) {
  Harness h(8e6);
  obs::Observer observer;
  TcpConnection conn({}, "c");
  conn.set_observer(&observer);
  h.link.attach(&conn);

  conn.start_transfer(h.sim.now(), 10'000, [] {});
  h.sim.run_until(2);  // finish, then idle past the restart threshold
  conn.start_transfer(h.sim.now(), 10'000, [] {});
  h.sim.run_until(4);

  const std::vector<obs::Event> handshakes =
      events_named(observer, "tcp.handshake", obs::EventKind::kInstant);
  ASSERT_EQ(handshakes.size(), 1u);
  EXPECT_DOUBLE_EQ(field(handshakes.front(), "restart"), 0);

  // The reused-but-idle transfer fires the idle-restart marker instead and
  // flags its end event as a restart.
  const std::vector<obs::Event> restarts =
      events_named(observer, "tcp.idle_restart", obs::EventKind::kInstant);
  ASSERT_EQ(restarts.size(), 1u);
  EXPECT_GT(field(restarts.front(), "idle_s"), 0.5);
  const std::vector<obs::Event> ends =
      events_named(observer, "tcp.transfer", obs::EventKind::kSpanEnd);
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_DOUBLE_EQ(field(ends[0], "restart"), 0);
  EXPECT_DOUBLE_EQ(field(ends[1], "restart"), 1);
}

TEST(TcpMarkers, NonPersistentReconnectIsARestartHandshake) {
  Harness h(8e6);
  obs::Observer observer;
  TcpConfig config;
  config.persistent = false;
  TcpConnection conn(config, "c");
  conn.set_observer(&observer);
  h.link.attach(&conn);

  conn.start_transfer(h.sim.now(), 10'000, [] {});
  h.sim.run_until(1);
  conn.start_transfer(h.sim.now(), 10'000, [] {});
  h.sim.run_until(2);

  const std::vector<obs::Event> handshakes =
      events_named(observer, "tcp.handshake", obs::EventKind::kInstant);
  ASSERT_EQ(handshakes.size(), 2u);
  EXPECT_DOUBLE_EQ(field(handshakes[0], "restart"), 0);
  EXPECT_DOUBLE_EQ(field(handshakes[1], "restart"), 1);
}

}  // namespace
}  // namespace vodx::net
