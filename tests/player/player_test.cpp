#include "player/player.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "testing/fixtures.h"

namespace vodx::player {
namespace {

using vodx::testing::small_asset;

struct PlayerHarness {
  PlayerHarness(PlayerConfig config, net::BandwidthTrace trace,
                media::VideoAsset asset,
                http::OriginConfig origin_config = {manifest::Protocol::kHls})
      : sim(0.01),
        link(sim, std::move(trace), 0.05),
        origin(std::move(asset), origin_config),
        proxy(origin),
        player(sim, link, proxy, origin_config.protocol, std::move(config)) {}

  void play(Seconds duration) {
    player.start(origin.manifest_url());
    sim.run_until(duration);
  }

  net::Simulator sim;
  net::Link link;
  http::OriginServer origin;
  http::Proxy proxy;
  Player player;
};

PlayerConfig basic_config() {
  PlayerConfig config;
  config.startup_buffer = 8;
  config.startup_bitrate = 800e3;
  config.pausing_threshold = 30;
  config.resuming_threshold = 25;
  config.tcp.rtt = 0.05;
  return config;
}

TEST(Player, PlaysShortContentToTheEnd) {
  PlayerHarness h(basic_config(), net::BandwidthTrace::constant(6e6, 200),
                  small_asset(60));
  h.play(120);
  EXPECT_EQ(h.player.state(), PlayerState::kEnded);
  EXPECT_NEAR(h.player.position(), 60, 0.1);
  EXPECT_TRUE(h.player.events().stalls.empty());
  EXPECT_GT(h.player.events().startup_delay(), 0);
}

TEST(Player, StartupWaitsForBufferSeconds) {
  PlayerConfig config = basic_config();
  config.startup_buffer = 12;  // three 4 s segments
  PlayerHarness h(config, net::BandwidthTrace::constant(6e6, 200),
                  small_asset(60));
  h.play(120);
  // Playback must not have begun before 3 segments were fetched: count
  // video downloads that completed before playback_started.
  int before = 0;
  for (const auto& r : h.proxy.log().records()) {
    if (r.url.find("seg") != std::string::npos && r.finished() &&
        r.completed_at <= h.player.events().playback_started) {
      ++before;
    }
  }
  EXPECT_GE(before, 3);
}

TEST(Player, StartupMinSegmentsConstraint) {
  // Same startup seconds, but also demand 3 segments: with 4 s segments the
  // 8 s requirement alone would start after 2.
  PlayerConfig with_count = basic_config();
  with_count.startup_min_segments = 3;
  PlayerHarness a(with_count, net::BandwidthTrace::constant(6e6, 200),
                  small_asset(60));
  a.play(120);

  PlayerConfig without = basic_config();
  PlayerHarness b(without, net::BandwidthTrace::constant(6e6, 200),
                  small_asset(60));
  b.play(120);

  EXPECT_GT(a.player.events().startup_delay(),
            b.player.events().startup_delay());
}

TEST(Player, StallsWhenBandwidthCollapses) {
  // Bandwidth dies at t=20: the buffer drains and playback stalls.
  PlayerHarness h(basic_config(),
                  net::BandwidthTrace::step(4e6, 50e3, 20, 300),
                  small_asset(120));
  h.play(200);
  EXPECT_GE(h.player.events().stalls.size(), 1u);
  EXPECT_GT(h.player.events().total_stall_time(200), 5);
}

TEST(Player, RecoversFromStall) {
  // A 30 s outage, then bandwidth returns: playback must resume.
  net::BandwidthTrace trace = net::BandwidthTrace::from_samples(
      {{0, 4e6}, {20, 30e3}, {50, 4e6}}, 300);
  PlayerHarness h(basic_config(), std::move(trace), small_asset(120));
  h.play(250);
  EXPECT_EQ(h.player.state(), PlayerState::kEnded);
  ASSERT_GE(h.player.events().stalls.size(), 1u);
  EXPECT_GE(h.player.events().stalls[0].end, 0);  // stall closed
}

TEST(Player, SeekbarTicksOncePerSecond) {
  PlayerHarness h(basic_config(), net::BandwidthTrace::constant(6e6, 200),
                  small_asset(60));
  std::vector<std::pair<Seconds, int>> samples;
  h.player.set_seekbar_callback(
      [&](Seconds wall, int progress) { samples.emplace_back(wall, progress); });
  h.play(100);
  ASSERT_GT(samples.size(), 50u);
  // 1 Hz cadence throughout; the very last update is the end-of-playback
  // notification and may arrive off-cycle.
  for (std::size_t i = 1; i + 1 < samples.size(); ++i) {
    EXPECT_NEAR(samples[i].first - samples[i - 1].first, 1.0, 0.02);
  }
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].second, samples[i - 1].second);
  }
  EXPECT_EQ(samples.back().second, 60);
}

TEST(Player, DisplayedSegmentsAreContiguous) {
  PlayerHarness h(basic_config(), net::BandwidthTrace::constant(3e6, 200),
                  small_asset(60));
  h.play(120);
  const auto& displayed = h.player.events().displayed;
  ASSERT_EQ(displayed.size(), 15u);
  for (std::size_t i = 0; i < displayed.size(); ++i) {
    EXPECT_EQ(displayed[i].index, static_cast<int>(i));
  }
}

TEST(Player, PauseResumeCyclesRespectThresholds) {
  PlayerConfig config = basic_config();
  config.pausing_threshold = 20;
  config.resuming_threshold = 12;
  PlayerHarness h(config, net::BandwidthTrace::constant(10e6, 400),
                  small_asset(300));
  h.player.start(h.origin.manifest_url());
  double max_buffer = 0;
  bool saw_resume_region = false;
  for (int step = 0; step < 2000; ++step) {
    h.sim.run_for(0.1);
    const double buffered =
        h.player.video_buffer().buffered_ahead(h.player.position());
    max_buffer = std::max(max_buffer, buffered);
    if (h.player.state() == PlayerState::kPlaying && buffered > 0 &&
        buffered < 13) {
      saw_resume_region = true;
    }
  }
  // Buffer stays near the pausing threshold (+ one segment of overshoot).
  EXPECT_LE(max_buffer, 20 + 4 + 0.5);
  EXPECT_GE(max_buffer, 19);
  EXPECT_TRUE(saw_resume_region);
}

TEST(Player, FailsCleanlyOnMissingManifest) {
  PlayerHarness h(basic_config(), net::BandwidthTrace::constant(6e6, 100),
                  small_asset(60));
  h.player.start("/wrong.m3u8");
  h.sim.run_until(10);
  EXPECT_EQ(h.player.state(), PlayerState::kFailed);
  EXPECT_FALSE(h.player.events().failure.empty());
}

TEST(Player, SeparateAudioGatesPlayback) {
  // DASH with separate audio: playback requires both pipelines.
  PlayerConfig config = basic_config();
  config.max_connections = 2;
  http::OriginConfig origin_config;
  origin_config.protocol = manifest::Protocol::kDash;
  PlayerHarness h(config, net::BandwidthTrace::constant(4e6, 200),
                  small_asset(60, /*separate_audio=*/true), origin_config);
  h.play(150);
  EXPECT_EQ(h.player.state(), PlayerState::kEnded);
  // Audio segments were fetched too.
  int audio_fetches = 0;
  for (const auto& r : h.proxy.log().records()) {
    if (r.url.find("/audio/") != std::string::npos &&
        r.range && r.range->first > 0) {
      ++audio_fetches;
    }
  }
  EXPECT_GT(audio_fetches, 20);  // 60 s of 2 s audio segments
}

TEST(Player, CascadeSrRedownloadsSuffix) {
  PlayerConfig config = basic_config();
  config.sr = SrPolicy::kCascadeExoV1;
  config.sr_min_buffer = 8;
  config.pausing_threshold = 60;
  config.resuming_threshold = 50;
  // Low bandwidth start, then a big jump: the player upswitches and
  // replaces buffered low-quality segments.
  PlayerHarness h(config, net::BandwidthTrace::step(1e6, 8e6, 40, 300),
                  small_asset(120));
  h.play(250);
  EXPECT_FALSE(h.player.events().replacements.empty());
}

TEST(Player, PerSegmentSrOnlyUpgrades) {
  PlayerConfig config = basic_config();
  config.sr = SrPolicy::kPerSegment;
  config.sr_min_buffer = 6;
  config.pausing_threshold = 40;
  config.resuming_threshold = 30;
  PlayerHarness h(config, net::BandwidthTrace::step(1e6, 8e6, 40, 300),
                  small_asset(120));
  h.play(250);
  const auto& replacements = h.player.events().replacements;
  ASSERT_FALSE(replacements.empty());
  for (const auto& r : replacements) {
    EXPECT_GT(r.new_level, r.old_level)
        << "improved SR must never downgrade a buffered segment";
  }
}

TEST(Player, NoSrMeansNoReplacements) {
  PlayerConfig config = basic_config();
  config.sr = SrPolicy::kNone;
  PlayerHarness h(config, net::BandwidthTrace::step(1e6, 8e6, 40, 300),
                  small_asset(120));
  h.play(250);
  EXPECT_TRUE(h.player.events().replacements.empty());
}

}  // namespace
}  // namespace vodx::player
