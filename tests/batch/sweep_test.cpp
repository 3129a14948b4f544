#include "batch/sweep.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/strings.h"
#include "testing/fixtures.h"
#include "testing/lines.h"

namespace vodx::batch {
namespace {

/// A fast grid: tiny sessions, two synthetic services.
SweepConfig small_grid(std::vector<int> profiles = {1, 7},
                       std::vector<std::uint64_t> seeds = {0}) {
  SweepConfig config;
  services::ServiceSpec hls = testing::test_spec(manifest::Protocol::kHls);
  services::ServiceSpec dash = testing::test_spec(manifest::Protocol::kDash);
  hls.name = "TH";
  hls.player.name = "TH";
  dash.name = "TD";
  dash.player.name = "TD";
  config.services = {hls, dash};
  config.profiles = std::move(profiles);
  config.seeds = std::move(seeds);
  config.session_duration = 30;
  config.content_duration = 120;
  return config;
}

TEST(SweepEngine, DeriveSeedIsPureAndTagSeparated) {
  EXPECT_EQ(derive_seed(1, 2, 3, 4), derive_seed(1, 2, 3, 4));
  EXPECT_NE(derive_seed(1, 2, 3, 4), derive_seed(1, 2, 3, 5));
  EXPECT_NE(derive_seed(1, 2, 3, 4), derive_seed(1, 2, 4, 3));
  EXPECT_NE(derive_seed(1, 2), derive_seed(2, 1));
  EXPECT_NE(derive_seed(42, 1), 42u);
}

TEST(SweepEngine, SeedZeroMapsToLegacySeeds) {
  EXPECT_EQ(trace_seed_for(0), kLegacyTraceSeed);
  EXPECT_EQ(content_seed_for(0), kLegacyContentSeed);
  EXPECT_NE(trace_seed_for(1), kLegacyTraceSeed);
  EXPECT_NE(content_seed_for(1), kLegacyContentSeed);
  // Trace and content streams must never collapse onto each other.
  EXPECT_NE(trace_seed_for(1), content_seed_for(1));
  EXPECT_NE(trace_seed_for(7), trace_seed_for(8));
}

TEST(SweepEngine, GridOrderIsServiceMajorThenProfileThenSeed) {
  SweepConfig config = small_grid({1, 7}, {0, 3});
  SweepResult result = run_sweep(config);
  ASSERT_EQ(result.cells.size(), 8u);
  const char* expected_service[] = {"TH", "TH", "TH", "TH",
                                    "TD", "TD", "TD", "TD"};
  const int expected_profile[] = {1, 1, 7, 7, 1, 1, 7, 7};
  const std::uint64_t expected_seed[] = {0, 3, 0, 3, 0, 3, 0, 3};
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const CellResult& cell = result.cells[i];
    EXPECT_EQ(cell.service, expected_service[i]) << "cell " << i;
    EXPECT_EQ(cell.profile_id, expected_profile[i]) << "cell " << i;
    EXPECT_EQ(cell.seed, expected_seed[i]) << "cell " << i;
    EXPECT_TRUE(cell.ok) << cell.error;
    EXPECT_GT(cell.result.session_end, 0);
  }
  EXPECT_EQ(result.failed, 0);
}

TEST(SweepEngine, BadProfileIdFailsOnlyItsCells) {
  SweepConfig config = small_grid({1, 99});
  SweepResult result = run_sweep(config);
  ASSERT_EQ(result.cells.size(), 4u);
  EXPECT_EQ(result.failed, 2);
  for (const CellResult& cell : result.cells) {
    if (cell.profile_id == 99) {
      EXPECT_FALSE(cell.ok);
      EXPECT_NE(cell.error.find("out of range"), std::string::npos);
      EXPECT_NE(cell.coordinates().find("profile 99"), std::string::npos);
    } else {
      EXPECT_TRUE(cell.ok) << cell.error;
    }
  }
}

TEST(SweepEngine, CsvHasCoordinateColumnsAndSkipsFailedCells) {
  SweepConfig config = small_grid({1, 99});
  SweepResult result = run_sweep(config);
  const std::string csv = sweep_csv(result);
  const std::vector<std::string> lines = split_lines(csv);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_TRUE(starts_with(lines[0],
                          "service,profile,seed,fault,origin,startup_delay_s"));
  EXPECT_TRUE(starts_with(lines[1], "TH,1,0,none,none,"));
  EXPECT_TRUE(starts_with(lines[2], "TD,1,0,none,none,"));
  EXPECT_EQ(csv.find(",99,"), std::string::npos);  // failed cells excluded
}

TEST(SweepEngine, JsonlCarriesErrorsWithCoordinates) {
  SweepConfig config = small_grid({1, 99});
  SweepResult result = run_sweep(config);
  const std::string jsonl = sweep_jsonl(result);
  const std::vector<std::string> lines = split_lines(jsonl);
  ASSERT_EQ(lines.size(), 4u);  // every cell serializes, failed or not
  int ok_lines = 0;
  int error_lines = 0;
  for (const std::string& line : lines) {
    if (line.find("\"ok\":true") != std::string::npos) ++ok_lines;
    if (line.find("\"ok\":false") != std::string::npos &&
        line.find("\"profile\":99") != std::string::npos &&
        line.find("out of range") != std::string::npos) {
      ++error_lines;
    }
  }
  EXPECT_EQ(ok_lines, 2);
  EXPECT_EQ(error_lines, 2);
}

TEST(SweepEngine, JsonlEscapesQuotesAndControlCharacters) {
  // An unknown scenario name fails its cells; the name lands in both the
  // fault field and the error text, and must stay valid JSON in each.
  SweepConfig config = small_grid({1});
  config.fault_scenarios = {"bad\"name\x01"};
  SweepResult result = run_sweep(config);
  EXPECT_EQ(result.failed, 2);
  const std::vector<std::string> lines = split_lines(sweep_jsonl(result));
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find(R"("fault":"bad\"name\u0001")"), std::string::npos)
        << line;
    EXPECT_NE(line.find(R"("error":")"), std::string::npos) << line;
    EXPECT_EQ(line.find('\x01'), std::string::npos) << line;
    EXPECT_EQ(line.find("bad\"name"), std::string::npos) << line;
  }
}

TEST(SweepEngine, ObserverCallbackRunsInGridOrderWithPopulatedTraces) {
  SweepConfig config = small_grid({1, 7});
  config.jobs = 4;
  std::vector<std::string> order;
  std::vector<std::size_t> trace_sizes;
  config.observe = [&](const CellResult& cell, const obs::Observer& observer) {
    order.push_back(format("%s/%d", cell.service.c_str(), cell.profile_id));
    trace_sizes.push_back(observer.trace.size());
  };
  run_sweep(config);
  const std::vector<std::string> expected = {"TH/1", "TH/7", "TD/1", "TD/7"};
  EXPECT_EQ(order, expected);
  for (std::size_t size : trace_sizes) EXPECT_GT(size, 0u);
}

TEST(SweepEngine, ProgressTicksOncePerCell) {
  SweepConfig config = small_grid({1, 7});
  config.jobs = 2;
  std::size_t ticks = 0;
  std::size_t last_total = 0;
  config.progress = [&](const CellResult&, std::size_t done,
                        std::size_t total) {
    ++ticks;
    EXPECT_LE(done, total);
    last_total = total;
  };
  run_sweep(config);
  EXPECT_EQ(ticks, 4u);
  EXPECT_EQ(last_total, 4u);
}

TEST(SweepEngine, FullGridSpansCatalogAndProfiles) {
  SweepConfig config = full_grid();
  EXPECT_EQ(config.services.size(), services::catalog().size());
  EXPECT_EQ(config.profiles.size(),
            static_cast<std::size_t>(trace::kProfileCount));
  EXPECT_EQ(config.seeds, std::vector<std::uint64_t>{0});
}

}  // namespace
}  // namespace vodx::batch
