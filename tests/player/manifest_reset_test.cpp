// Satellite of the chaos PR: a connection reset mid-manifest is retried
// under the bounded manifest-retry budget, the session still plays, and the
// wire metrics tick exactly one reset.
#include <gtest/gtest.h>

#include <memory>

#include "obs/observer.h"
#include "player/player.h"
#include "testing/fixtures.h"
#include "testing/interceptors.h"

namespace vodx::player {
namespace {

using vodx::testing::small_asset;

PlayerConfig retrying_config() {
  PlayerConfig config;
  config.startup_buffer = 8;
  config.startup_bitrate = 800e3;
  config.pausing_threshold = 30;
  config.resuming_threshold = 25;
  config.tcp.rtt = 0.05;
  config.manifest_retries = 2;
  return config;
}

TEST(ManifestReset, MidManifestResetIsRetriedOnce) {
  net::Simulator sim(0.01);
  net::Link link(sim, net::BandwidthTrace::constant(6e6, 400), 0.05);
  http::OriginServer origin(small_asset(120), {manifest::Protocol::kHls});
  http::Proxy proxy(origin);
  // Reset the very first master-manifest transfer halfway down the wire;
  // every later fetch is untouched.
  auto fired = std::make_shared<bool>(false);
  proxy.use(testing::tap_response(
      [fired](const http::Request& request, http::Response& response,
              Seconds) {
        if (*fired) return;
        if (request.url.find("master.m3u8") == std::string::npos) return;
        *fired = true;
        response.reset_after = response.wire_size() / 2;
      }));

  Player player(sim, link, proxy, manifest::Protocol::kHls, retrying_config());
  obs::Observer observer;
  sim.set_observer(&observer);
  player.set_observer(&observer);
  player.start(origin.manifest_url());
  sim.run_until(300);

  // The retry rescued the session: playback ran to the end.
  EXPECT_EQ(player.state(), PlayerState::kEnded);
  EXPECT_NEAR(player.position(), 120, 0.1);
  EXPECT_GE(player.events().playback_started, 0);

  // The wire saw the manifest twice: the reset attempt and the retry.
  int manifest_fetches = 0;
  for (const auto& r : proxy.log().records()) {
    if (r.url.find("master.m3u8") != std::string::npos) ++manifest_fetches;
  }
  EXPECT_EQ(manifest_fetches, 2);

  // And the reset counter ticked exactly once.
  const obs::MetricsSnapshot snapshot = observer.metrics.snapshot(sim.now());
  const obs::MetricsSnapshot::Entry* resets = snapshot.find("http.resets");
  ASSERT_NE(resets, nullptr);
  EXPECT_EQ(resets->count, 1);
}

TEST(ManifestReset, WithoutRetriesTheResetIsFatal) {
  net::Simulator sim(0.01);
  net::Link link(sim, net::BandwidthTrace::constant(6e6, 400), 0.05);
  http::OriginServer origin(small_asset(120), {manifest::Protocol::kHls});
  http::Proxy proxy(origin);
  auto fired = std::make_shared<bool>(false);
  proxy.use(testing::tap_response(
      [fired](const http::Request& request, http::Response& response,
              Seconds) {
        if (*fired) return;
        if (request.url.find("master.m3u8") == std::string::npos) return;
        *fired = true;
        response.reset_after = response.wire_size() / 2;
      }));

  PlayerConfig config = retrying_config();
  config.manifest_retries = 0;  // first manifest failure is fatal
  Player player(sim, link, proxy, manifest::Protocol::kHls, config);
  player.start(origin.manifest_url());
  sim.run_until(60);

  EXPECT_NE(player.state(), PlayerState::kEnded);
  EXPECT_FALSE(player.events().failure.empty());
}

}  // namespace
}  // namespace vodx::player
