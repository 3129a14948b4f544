// SessionFactory (single construction path) and HostedSession (sessions on
// a caller-owned simulator + link): equivalence with run_session, shared-
// link hosting, and early departure.
#include "core/session_factory.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "batch/sweep.h"
#include "common/error.h"
#include "common/strings.h"
#include "core/report.h"
#include "services/content_factory.h"
#include "trace/cellular_profiles.h"

namespace vodx::core {
namespace {

TEST(SessionFactory, ValidatesProfileRange) {
  EXPECT_NO_THROW(SessionFactory::validate_profile(1));
  EXPECT_NO_THROW(SessionFactory::validate_profile(trace::kProfileCount));
  EXPECT_THROW(SessionFactory::validate_profile(0), ConfigError);
  EXPECT_THROW(SessionFactory::validate_profile(trace::kProfileCount + 1),
               ConfigError);
  EXPECT_THROW(SessionFactory::validate_profile(-3), ConfigError);
}

TEST(SessionFactory, UnknownServiceNameThrows) {
  SessionFactory factory;
  EXPECT_THROW(factory.config("no-such-service", 7, 1, 2), ConfigError);
}

TEST(SessionFactory, ThreadsSharedKnobsIntoEveryConfig) {
  SessionFactory factory;
  factory.session_duration = 123;
  factory.content_duration = 456;
  factory.sim_core = net::SimCore::kFixedTickReference;
  factory.wall_budget = 9;
  factory.max_events_per_instant = 77;
  const SessionConfig config = factory.config("H1", 7, 2017, 42);
  EXPECT_EQ(config.spec.name, "H1");
  EXPECT_DOUBLE_EQ(config.session_duration, 123);
  EXPECT_DOUBLE_EQ(config.content_duration, 456);
  EXPECT_EQ(config.sim_core, net::SimCore::kFixedTickReference);
  EXPECT_DOUBLE_EQ(config.wall_budget, 9);
  EXPECT_EQ(config.max_events_per_instant, 77u);
  EXPECT_EQ(config.content_seed, 42u);
  EXPECT_GT(config.trace.duration(), 0);
}

TEST(SessionFactory, ProfileTraceMatchesDirectDraw) {
  SessionFactory factory;
  const SessionConfig config = factory.config("H1", 7, 2017, 42);
  const net::BandwidthTrace direct = trace::cellular_profile(7, 2017);
  EXPECT_EQ(config.trace.duration(), direct.duration());
  EXPECT_DOUBLE_EQ(config.trace.at(0), direct.at(0));
  EXPECT_DOUBLE_EQ(config.trace.at(100), direct.at(100));
}

TEST(HostedSession, MatchesRunSessionOnPrivateWorld) {
  // The ownership inversion must not change single-session results: one
  // HostedSession on a hand-built world reproduces run_session's ground
  // truth for the identical config.
  SessionFactory factory;
  factory.session_duration = 120;
  factory.content_duration = 120;
  const SessionConfig config = factory.config(
      "H1", 7, batch::trace_seed_for(0), batch::content_seed_for(0));

  const SessionResult expected = run_session(config);

  net::Simulator sim(config.tick);
  sim.set_core(config.sim_core);
  net::Link link(sim, config.trace, config.rtt);
  HostedSession session(sim, link, config);
  session.start();
  sim.run_until(config.session_duration);
  const SessionResult actual = session.finish(sim.now());

  EXPECT_EQ(actual.final_state, expected.final_state);
  EXPECT_DOUBLE_EQ(actual.final_position, expected.final_position);
  EXPECT_DOUBLE_EQ(actual.ground_truth.startup_delay,
                   expected.ground_truth.startup_delay);
  EXPECT_DOUBLE_EQ(actual.ground_truth.total_stall,
                   expected.ground_truth.total_stall);
  EXPECT_EQ(actual.ground_truth.total_bytes, expected.ground_truth.total_bytes);
  EXPECT_DOUBLE_EQ(actual.qoe.startup_delay, expected.qoe.startup_delay);
  EXPECT_EQ(actual.events.displayed.size(), expected.events.displayed.size());
  EXPECT_EQ(actual.events.stalls.size(), expected.events.stalls.size());
}

TEST(HostedSession, PrebuiltTitleMatchesPrivateTitle) {
  // A shared title changes who builds the origin, not what the session
  // sees: handed a prebuilt title, a session serves from it and finishes
  // exactly like one that builds its own.
  SessionFactory factory;
  factory.session_duration = 120;
  factory.content_duration = 120;
  for (const char* name : {"H1", "D1", "D3", "S1"}) {
    SCOPED_TRACE(name);
    const SessionConfig own = factory.config(
        name, 7, batch::trace_seed_for(0), batch::content_seed_for(0));
    SessionConfig prebuilt = own;
    prebuilt.title = std::make_shared<const http::OriginServer>(
        services::make_origin(own.spec, own.content_duration,
                              own.content_seed));

    auto run = [](const SessionConfig& config,
                  const http::OriginServer** origin) {
      net::Simulator sim(config.tick);
      net::Link link(sim, config.trace, config.rtt);
      HostedSession session(sim, link, config);
      *origin = &session.proxy().origin();
      session.start();
      sim.run_until(config.session_duration);
      const SessionResult result = session.finish(sim.now());
      return qoe_csv_row(config.spec.name, result) +
             format("%.9g,%.9g,%lld,%zu,%zu,%zu,%.9g\n",
                    result.ground_truth.startup_delay,
                    result.ground_truth.total_stall,
                    static_cast<long long>(result.ground_truth.total_bytes),
                    result.events.displayed.size(),
                    result.events.stalls.size(), result.buffer.size(),
                    result.final_position);
    };
    const http::OriginServer* own_origin = nullptr;
    const http::OriginServer* shared_origin = nullptr;
    const std::string expected = run(own, &own_origin);
    const std::string actual = run(prebuilt, &shared_origin);
    EXPECT_EQ(shared_origin, prebuilt.title.get());
    EXPECT_NE(own_origin, prebuilt.title.get());
    EXPECT_EQ(actual, expected);
  }
}

TEST(HostedSession, TwoSessionsShareOneLink) {
  SessionFactory factory;
  factory.session_duration = 60;
  factory.content_duration = 60;
  const SessionConfig config = factory.config(
      services::service("H1"), net::BandwidthTrace::constant(6e6, 600));

  net::Simulator sim(config.tick);
  net::Link link(sim, net::BandwidthTrace::constant(6e6, 600), config.rtt);
  HostedSession first(sim, link, config);
  HostedSession second(sim, link, config);
  first.start();
  second.start();
  sim.run_until(60);
  const SessionResult r1 = first.finish_light(sim.now());
  const SessionResult r2 = second.finish_light(sim.now());
  // Both made progress on the shared bottleneck, and identical sessions
  // competing max-min fairly end up with comparable byte totals.
  EXPECT_GT(r1.ground_truth.total_bytes, 0);
  EXPECT_GT(r2.ground_truth.total_bytes, 0);
  const double ratio = static_cast<double>(r1.ground_truth.total_bytes) /
                       static_cast<double>(r2.ground_truth.total_bytes);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST(HostedSession, StopDetachesFlowsAndFreezesBytes) {
  SessionFactory factory;
  factory.session_duration = 120;
  factory.content_duration = 120;
  const SessionConfig config = factory.config(
      services::service("H1"), net::BandwidthTrace::constant(4e6, 600));

  net::Simulator sim(config.tick);
  net::Link link(sim, net::BandwidthTrace::constant(4e6, 600), config.rtt);
  HostedSession session(sim, link, config);
  session.start();
  sim.run_until(30);
  EXPECT_GT(link.attached(), 0);

  session.stop();
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(link.attached(), 0);
  session.stop();  // idempotent

  const SessionResult at_stop = session.finish_light(sim.now());
  EXPECT_GT(at_stop.ground_truth.total_bytes, 0);
  sim.run_until(60);
  const SessionResult later = session.finish_light(sim.now());
  // A departed session downloads nothing more.
  EXPECT_EQ(later.ground_truth.total_bytes, at_stop.ground_truth.total_bytes);
}

}  // namespace
}  // namespace vodx::core
