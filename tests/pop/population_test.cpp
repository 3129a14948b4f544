// Population runner: arrival-process purity, jobs-independence of the full
// report, and the shared-cell hosting behaviour the paper's population
// extrapolation rests on.
#include "pop/population.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "core/session_factory.h"
#include "net/link.h"
#include "player/player.h"
#include "services/service_catalog.h"

namespace vodx::pop {
namespace {

PopulationConfig small_config() {
  PopulationConfig config;
  config.services = {"H1", "D1"};
  config.towers = {7, 3};
  config.seed = 11;
  config.horizon = 120;
  config.arrivals.rate_per_min = 4;
  config.watch_time = 60;
  config.watch_sigma = 0.4;
  return config;
}

TEST(TowerArrivals, PureFunctionOfCoordinates) {
  const PopulationConfig config = small_config();
  const std::vector<Arrival> first = tower_arrivals(config, 0, 2);
  const std::vector<Arrival> second = tower_arrivals(config, 0, 2);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].at, second[i].at);
    EXPECT_EQ(first[i].watch, second[i].watch);
    EXPECT_EQ(first[i].service_index, second[i].service_index);
    EXPECT_EQ(first[i].content_seed, second[i].content_seed);
  }
}

TEST(TowerArrivals, SortedInWindowAndWellFormed) {
  const PopulationConfig config = small_config();
  const std::vector<Arrival> arrivals = tower_arrivals(config, 1, 2);
  ASSERT_FALSE(arrivals.empty());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_GE(arrivals[i].at, 0.0);
    EXPECT_LT(arrivals[i].at, config.horizon);
    EXPECT_GE(arrivals[i].watch, 1.0);
    EXPECT_GE(arrivals[i].service_index, 0);
    EXPECT_LT(arrivals[i].service_index, 2);
    if (i > 0) {
      EXPECT_GE(arrivals[i].at, arrivals[i - 1].at);
    }
  }
}

TEST(TowerArrivals, TowersDrawIndependentStreams) {
  const PopulationConfig config = small_config();
  const std::vector<Arrival> t0 = tower_arrivals(config, 0, 2);
  const std::vector<Arrival> t1 = tower_arrivals(config, 1, 2);
  // Identical schedules on different towers would mean the tower coordinate
  // never reached the seed derivation.
  bool identical = t0.size() == t1.size();
  for (std::size_t i = 0; identical && i < t0.size(); ++i) {
    identical = t0[i].at == t1[i].at;
  }
  EXPECT_FALSE(identical);
}

TEST(TowerArrivals, FlashCrowdLandsInsideItsWindow) {
  PopulationConfig config = small_config();
  config.arrivals.rate_per_min = 0;  // flash arrivals only
  config.arrivals.flash_at = 30;
  config.arrivals.flash_window = 10;
  config.arrivals.flash_arrivals = 25;
  const std::vector<Arrival> arrivals = tower_arrivals(config, 0, 2);
  EXPECT_EQ(arrivals.size(), 25u);
  for (const Arrival& a : arrivals) {
    EXPECT_GE(a.at, 30.0);
    EXPECT_LT(a.at, 40.0);
  }
}

TEST(TowerArrivals, CapBoundsTheSchedule) {
  PopulationConfig config = small_config();
  config.arrivals.rate_per_min = 60;
  config.max_sessions_per_tower = 5;
  const std::vector<Arrival> arrivals = tower_arrivals(config, 0, 2);
  EXPECT_EQ(arrivals.size(), 5u);
}

TEST(TowerArrivals, DiurnalModulationShiftsMass) {
  // Amplitude 1 with a period equal to the horizon puts the trough on the
  // second half: the first half must carry (much) more than the second.
  PopulationConfig config = small_config();
  config.horizon = 200;
  config.arrivals.rate_per_min = 30;
  config.arrivals.diurnal_amplitude = 1.0;
  config.arrivals.diurnal_period = 200;
  const std::vector<Arrival> arrivals = tower_arrivals(config, 0, 2);
  ASSERT_FALSE(arrivals.empty());
  const auto split = std::count_if(
      arrivals.begin(), arrivals.end(),
      [&](const Arrival& a) { return a.at < config.horizon / 2; });
  EXPECT_GT(static_cast<double>(split),
            0.75 * static_cast<double>(arrivals.size()));
}

/// The origin a HostedSession built from `arrival` serves from, hosted the
/// way run_population hosts it.
const http::OriginServer* hosted_origin(
    const PopulationConfig& config,
    const std::vector<services::ServiceSpec>& pool, TowerTitles& titles,
    const Arrival& arrival) {
  core::SessionFactory factory;
  factory.session_duration = config.horizon;
  factory.content_duration = config.content_duration;
  core::SessionConfig session = factory.config(
      pool[static_cast<std::size_t>(arrival.service_index)],
      net::BandwidthTrace());
  session.content_seed = titles.content_seed(arrival);
  session.title = titles.title(arrival);
  net::Simulator sim(config.tick);
  net::Link link(sim, net::BandwidthTrace::constant(4e6, 600), config.rtt);
  core::HostedSession hosted(sim, link, session);
  return &hosted.proxy().origin();
}

TEST(TowerTitles, ArrivalsOfOneServiceAndSeedShareOneOrigin) {
  PopulationConfig config = small_config();
  config.content_duration = 60;
  const std::vector<services::ServiceSpec> pool = {services::service("H1"),
                                                   services::service("D1")};
  Arrival first;
  first.service_index = 0;
  first.content_seed = 5;
  Arrival second = first;
  second.content_seed = 6;
  Arrival other_service = first;
  other_service.service_index = 1;

  // shared_content: both H1 arrivals stream the tower's one H1 title.
  config.shared_content = true;
  TowerTitles shared(config, pool, 0);
  const http::OriginServer* a = hosted_origin(config, pool, shared, first);
  EXPECT_EQ(hosted_origin(config, pool, shared, second), a);
  EXPECT_NE(hosted_origin(config, pool, shared, other_service), a);
  EXPECT_EQ(shared.content_seed(first), shared.content_seed(second));

  // Per-arrival titles: same service, different seeds, different titles;
  // an arrival repeating a (service, seed) pair still shares.
  config.shared_content = false;
  TowerTitles own(config, pool, 0);
  const http::OriginServer* b = hosted_origin(config, pool, own, first);
  EXPECT_NE(b, a);
  EXPECT_NE(hosted_origin(config, pool, own, second), b);
  EXPECT_EQ(hosted_origin(config, pool, own, first), b);
}

TEST(PopulationDeterminism, JobsOneAndEightAreByteIdentical) {
  PopulationConfig config = small_config();
  config.arrivals.flash_at = 40;
  config.arrivals.flash_window = 15;
  config.arrivals.flash_arrivals = 6;
  config.jobs = 1;
  const PopulationReport serial = run_population(config);
  config.jobs = 8;
  const PopulationReport threaded = run_population(config);
  EXPECT_EQ(population_jsonl(serial), population_jsonl(threaded));
  EXPECT_EQ(population_text(serial), population_text(threaded));
  EXPECT_EQ(population_csv(serial), population_csv(threaded));
  EXPECT_GT(serial.total_sessions, 0);
}

TEST(Population, OutcomesCoverEveryArrivalAndFoldSanely) {
  PopulationConfig config = small_config();
  config.towers = {7};
  const std::vector<Arrival> expected = tower_arrivals(config, 0, 2);
  const PopulationReport report = run_population(config);
  ASSERT_EQ(report.towers.size(), 1u);
  const TowerReport& tower = report.towers[0];
  EXPECT_EQ(tower.profile_id, 7);
  EXPECT_EQ(tower.sessions, static_cast<int>(expected.size()));
  EXPECT_GE(tower.peak_concurrent, 1);
  EXPECT_LE(tower.peak_concurrent, tower.sessions);
  EXPECT_GE(tower.jain, 0.0);
  EXPECT_LE(tower.jain, 1.0 + 1e-12);
  int started = 0;
  for (const SessionOutcome& outcome : tower.outcomes) {
    EXPECT_GE(outcome.departure, outcome.arrival);
    EXPECT_LE(outcome.departure, config.horizon);
    EXPECT_GE(outcome.total_bytes, 0);
    EXPECT_GE(outcome.stall_count, 0);
    if (outcome.startup_delay >= 0) ++started;
  }
  EXPECT_EQ(report.total_sessions - report.never_started, started);
  // Per-service rollup counts partition the sessions.
  int rollup_total = 0;
  for (const ServiceRollup& rollup : report.by_service) {
    rollup_total += rollup.sessions;
  }
  EXPECT_EQ(rollup_total, report.total_sessions);
}

TEST(Population, UnknownServiceAndBadProfileThrow) {
  PopulationConfig config = small_config();
  config.services = {"nope"};
  EXPECT_THROW(run_population(config), ConfigError);
  config = small_config();
  config.towers = {99};
  EXPECT_THROW(run_population(config), ConfigError);
}

TEST(Completion, CountsSessionsHealthyAtTheHorizon) {
  using player::PlayerState;
  auto outcome = [](Seconds startup, PlayerState state) {
    SessionOutcome s;
    s.startup_delay = startup;
    s.final_state = player::to_string(state);
    return s;
  };
  PopulationReport report;
  report.towers.resize(2);
  report.towers[0].outcomes = {outcome(1.5, PlayerState::kPlaying),
                               outcome(2.0, PlayerState::kEnded),
                               // left before playback ever began
                               outcome(-1, PlayerState::kEnded)};
  report.towers[1].outcomes = {outcome(1.0, PlayerState::kFailed),
                               outcome(3.0, PlayerState::kRebuffering),
                               outcome(-1, PlayerState::kFailed)};
  const Completion completion = completed_sessions(report);
  EXPECT_EQ(completion.completed, 2);
  EXPECT_EQ(completion.total, 6);
  EXPECT_DOUBLE_EQ(completion.fraction(), 2.0 / 6.0);
  EXPECT_EQ(completed_sessions(PopulationReport{}).fraction(), 0.0);
}

}  // namespace
}  // namespace vodx::pop
