// Failure injection coverage: transient 5xx faults, the retry budget and
// its seeded jitter.
#include <gtest/gtest.h>

#include <map>

#include "player/player.h"
#include "testing/fixtures.h"
#include "testing/interceptors.h"

namespace vodx::player {
namespace {

using vodx::testing::small_asset;

struct Harness {
  explicit Harness(Bps bandwidth = 6e6, PlayerConfig config = base_config())
      : sim(0.01),
        link(sim, net::BandwidthTrace::constant(bandwidth, 400), 0.05),
        origin(small_asset(120), {manifest::Protocol::kHls}),
        proxy(origin),
        player(sim, link, proxy, manifest::Protocol::kHls, std::move(config)) {
  }

  static PlayerConfig base_config() {
    PlayerConfig config;
    config.startup_buffer = 8;
    config.startup_bitrate = 800e3;
    config.pausing_threshold = 30;
    config.resuming_threshold = 25;
    config.tcp.rtt = 0.05;
    return config;
  }

  net::Simulator sim;
  net::Link link;
  http::OriginServer origin;
  http::Proxy proxy;
  Player player;
};

TEST(Resilience, RecoversFromTransientFaults) {
  Harness h;
  // Every segment request fails once with 503, then succeeds.
  auto failures = std::make_shared<std::map<std::string, int>>();
  h.proxy.use(testing::respond_with(
      [failures](const http::Request& request,
                 Seconds) -> std::optional<http::Response> {
        if (request.url.find("seg") == std::string::npos) return std::nullopt;
        if ((*failures)[request.url]++ == 0) {
          return http::make_error(503, "injected");
        }
        return std::nullopt;
      }));
  h.player.start(h.origin.manifest_url());
  h.sim.run_until(300);
  EXPECT_EQ(h.player.state(), PlayerState::kEnded);
  EXPECT_NEAR(h.player.position(), 120, 0.1);
  // The wire shows both the faults and the successful retries.
  int faults = 0;
  for (const auto& r : h.proxy.log().records()) {
    if (r.status == 503) ++faults;
  }
  EXPECT_GT(faults, 20);
}

TEST(Resilience, PersistentFaultExhaustsRetriesAndStops) {
  Harness h;
  h.proxy.use(testing::respond_with(
      [](const http::Request& request,
         Seconds) -> std::optional<http::Response> {
        if (request.url.find("seg5") == std::string::npos) return std::nullopt;
        return http::make_error(503, "injected");
      }));
  h.player.start(h.origin.manifest_url());
  h.sim.run_until(200);
  // Playback proceeds through the buffered prefix, then starves at the
  // permanently missing segment.
  EXPECT_EQ(h.player.state(), PlayerState::kRebuffering);
  EXPECT_LT(h.player.position(), 25);
  // Exactly `fetch_retries` attempts hit the wire for the poisoned segment.
  int attempts = 0;
  for (const auto& r : h.proxy.log().records()) {
    if (r.url.find("seg5.ts") != std::string::npos) ++attempts;
  }
  EXPECT_EQ(attempts, h.player.config().fetch_retries);
}

TEST(Resilience, RetryBackoffDelaysReattempts) {
  Harness h;
  h.proxy.use(testing::respond_with(
      [](const http::Request& request,
         Seconds) -> std::optional<http::Response> {
        if (request.url.find("seg3") == std::string::npos) return std::nullopt;
        return http::make_error(503, "injected");
      }));
  h.player.start(h.origin.manifest_url());
  h.sim.run_until(60);
  std::vector<Seconds> attempt_times;
  for (const auto& r : h.proxy.log().records()) {
    if (r.url.find("seg3.ts") != std::string::npos) {
      attempt_times.push_back(r.requested_at);
    }
  }
  ASSERT_GE(attempt_times.size(), 2u);
  for (std::size_t i = 1; i < attempt_times.size(); ++i) {
    EXPECT_GE(attempt_times[i] - attempt_times[i - 1], 0.45);
  }
}

TEST(Resilience, FetchTimeoutAbortsHungTransfers) {
  // The link dies at t=12 with fetches in flight. Without a timeout those
  // transfers hang forever; with one, the player aborts and retries until
  // the budget runs out.
  PlayerConfig config = Harness::base_config();
  config.fetch_timeout = 5;
  net::Simulator sim(0.01);
  net::Link link(sim, net::BandwidthTrace::step(6e6, 0, 12, 200), 0.05);
  http::OriginServer origin(small_asset(120), {manifest::Protocol::kHls});
  http::Proxy proxy(origin);
  Player player(sim, link, proxy, manifest::Protocol::kHls, config);
  player.start(origin.manifest_url());
  sim.run_until(120);
  int aborted = 0;
  for (const auto& r : proxy.log().records()) {
    if (r.aborted) ++aborted;
  }
  EXPECT_GE(aborted, 2);
  EXPECT_EQ(player.state(), PlayerState::kRebuffering);
}

TEST(Resilience, AbandonDownswitchRidesOutPoisonedRenditions) {
  // Every rendition but the cheapest fails persistently. The hardened
  // player spends its retry budget, then abandons to level 0 and keeps
  // playing instead of stopping the pipeline.
  PlayerConfig config = Harness::base_config();
  config.abandon_downswitch = true;
  config.retry_backoff = 0.2;
  Harness h(6e6, config);
  h.proxy.use(testing::reject_if([](const http::Request& request) {
    return request.url.find(".ts") != std::string::npos &&
           request.url.find("/video/0/") == std::string::npos;
  }));
  h.player.start(h.origin.manifest_url());
  h.sim.run_until(350);
  EXPECT_EQ(h.player.state(), PlayerState::kEnded);
  EXPECT_NEAR(h.player.position(), 120, 0.1);
  for (const auto& e : h.player.events().displayed) {
    EXPECT_EQ(e.level, 0) << "segment " << e.index;
  }
}

TEST(Resilience, JitteredBackoffIsSeedDeterministic) {
  auto attempt_times = [](std::uint64_t seed) {
    PlayerConfig config = Harness::base_config();
    config.retry_jitter = 0.5;
    config.resilience_seed = seed;
    Harness h(6e6, config);
    h.proxy.use(testing::respond_with(
        [](const http::Request& request,
           Seconds) -> std::optional<http::Response> {
          if (request.url.find("seg3.ts") == std::string::npos) {
            return std::nullopt;
          }
          return http::make_error(503, "injected");
        }));
    h.player.start(h.origin.manifest_url());
    h.sim.run_until(60);
    std::vector<Seconds> times;
    for (const auto& r : h.proxy.log().records()) {
      if (r.url.find("seg3.ts") != std::string::npos) {
        times.push_back(r.requested_at);
      }
    }
    return times;
  };
  const std::vector<Seconds> a = attempt_times(7);
  const std::vector<Seconds> b = attempt_times(7);
  const std::vector<Seconds> c = attempt_times(8);
  ASSERT_GE(a.size(), 2u);
  EXPECT_EQ(a, b);  // same seed, bit-identical schedule
  EXPECT_NE(a, c);  // different seed, different jitter
}

}  // namespace
}  // namespace vodx::player
