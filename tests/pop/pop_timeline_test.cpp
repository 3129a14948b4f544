// Population telemetry: jobs-independence of the sampled timelines, the
// merge identity between the population timeline and the tower fold,
// bin-edge handling in the schedule prefill, the session-cap accounting,
// peak bookkeeping, and the population diag rollup.
#include "pop/pop_timeline.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/json.h"
#include "common/strings.h"
#include "pop/population.h"
#include "testing/lines.h"

namespace vodx::pop {
namespace {

PopulationConfig telemetry_config() {
  PopulationConfig config;
  config.services = {"H1", "D1"};
  config.towers = {7, 3};
  config.seed = 11;
  config.horizon = 90;
  config.arrivals.rate_per_min = 4;
  config.arrivals.flash_at = 30;
  config.arrivals.flash_window = 10;
  config.arrivals.flash_arrivals = 5;
  config.watch_time = 45;
  config.watch_sigma = 0.4;
  config.collect_timeline = true;
  return config;
}

TEST(PopulationTimeline, JobsOneTwoEightAreByteIdentical) {
  PopulationConfig config = telemetry_config();
  config.jobs = 1;
  const PopulationReport serial = run_population(config);
  config.jobs = 2;
  const PopulationReport two = run_population(config);
  config.jobs = 8;
  const PopulationReport eight = run_population(config);
  const std::string csv = population_timeline_csv(serial);
  EXPECT_EQ(csv, population_timeline_csv(two));
  EXPECT_EQ(csv, population_timeline_csv(eight));
  const std::string jsonl = population_timeline_jsonl(serial);
  EXPECT_EQ(jsonl, population_timeline_jsonl(two));
  EXPECT_EQ(jsonl, population_timeline_jsonl(eight));
  EXPECT_FALSE(serial.timeline.empty());
  EXPECT_GT(serial.total_sessions, 0);
}

TEST(PopulationTimeline, PopulationRowIsTheTowerFold) {
  const PopulationReport report = run_population(telemetry_config());
  ASSERT_EQ(report.towers.size(), 2u);
  obs::Timeline folded;
  for (const TowerReport& tower : report.towers) {
    folded.merge_from(tower.timeline);
  }
  EXPECT_EQ(folded.bin_width(), report.timeline.bin_width());
  EXPECT_EQ(folded.bin_count(), report.timeline.bin_count());
  ASSERT_EQ(folded.all().size(), report.timeline.all().size());
  for (std::size_t i = 0; i < folded.all().size(); ++i) {
    const obs::Timeline::Series& mine = folded.all()[i];
    const obs::Timeline::Series& theirs = report.timeline.all()[i];
    EXPECT_EQ(mine.name, theirs.name);
    EXPECT_EQ(mine.fold, theirs.fold);
    EXPECT_EQ(mine.bins, theirs.bins) << mine.name;
  }
}

TEST(PopulationTimeline, CsvAndJsonlAreOneRowModel) {
  const PopulationReport report = run_population(telemetry_config());
  const std::string csv = population_timeline_csv(report);
  EXPECT_EQ(population_timeline_csv(report), csv);

  // Columns: the row key, the bin, then the population schema in series
  // order, then the two derived ratios.
  std::string header = "tower,bin,t_start_s";
  for (const obs::Timeline::Series& series : report.timeline.all()) {
    header += "," + series.name;
  }
  header += ",stalled_frac,utilization";
  const std::vector<std::string> lines = split_lines(csv);
  ASSERT_GT(lines.size(), 1u);
  EXPECT_EQ(lines[0], header);
  EXPECT_EQ(lines[1].rfind("0,0,0.000,", 0), 0u);
  EXPECT_EQ(lines.back().rfind("pop,", 0), 0u);

  // Every JSONL line is its CSV row: the key as a string, every other cell
  // as the number the CSV prints.
  const std::vector<std::string> objects =
      split_lines(population_timeline_jsonl(report));
  ASSERT_EQ(objects.size(), lines.size() - 1);
  const std::vector<std::string> keys = split(header, ',');
  for (std::size_t row = 0; row < objects.size(); ++row) {
    const Json object = parse_json(objects[row]);
    const std::vector<std::string> cells = split(lines[row + 1], ',');
    ASSERT_EQ(object.object.size(), keys.size());
    ASSERT_EQ(cells.size(), keys.size());
    EXPECT_EQ(object.str_or("tower", "?"), cells[0]);
    for (std::size_t c = 1; c < keys.size(); ++c) {
      const Json* value = object.find(keys[c]);
      ASSERT_NE(value, nullptr) << keys[c];
      EXPECT_EQ(value->type, Json::Type::kNumber) << keys[c];
      EXPECT_EQ(value->number, parse_double(cells[c])) << keys[c];
    }
  }
}

TEST(PopulationTimeline, SampledConcurrencyIsBoundedByPeak) {
  const PopulationReport report = run_population(telemetry_config());
  for (const TowerReport& tower : report.towers) {
    const int concurrent = tower.timeline.find("concurrent");
    ASSERT_GE(concurrent, 0);
    double max_sampled = 0;
    for (int bin = 0; bin < tower.timeline.bin_count(); ++bin) {
      max_sampled =
          std::max(max_sampled, tower.timeline.value(concurrent, bin));
    }
    EXPECT_LE(max_sampled, tower.peak_concurrent);
    EXPECT_GT(max_sampled, 0);
  }
}

TEST(PopulationTimeline, ScheduleSeriesHandlesBinEdges) {
  obs::Timeline timeline = make_tower_timeline(1.0, 5.0, false);
  std::vector<Arrival> arrivals(3);
  arrivals[0].at = 0.0;   // exactly on the first boundary
  arrivals[0].watch = 2.0;  // departs at exactly 2.0 -> bin 2
  arrivals[1].at = 1.0;   // exactly on an interior boundary -> bin 1
  arrivals[1].watch = 10.0;  // survives the horizon: no departure
  arrivals[2].at = 4.5;
  arrivals[2].watch = 0.5;  // departs at exactly the horizon: no departure
  record_schedule(timeline, arrivals, 5.0);
  const int arrivals_series = timeline.find("arrivals");
  const int departures_series = timeline.find("departures");
  EXPECT_DOUBLE_EQ(timeline.value(arrivals_series, 0), 1);
  EXPECT_DOUBLE_EQ(timeline.value(arrivals_series, 1), 1);
  EXPECT_DOUBLE_EQ(timeline.value(arrivals_series, 4), 1);
  EXPECT_DOUBLE_EQ(timeline.value(departures_series, 2), 1);
  double total_departures = 0;
  for (int bin = 0; bin < timeline.bin_count(); ++bin) {
    total_departures += timeline.value(departures_series, bin);
  }
  EXPECT_DOUBLE_EQ(total_departures, 1);
}

TEST(PopulationTimeline, CapDropsAreCountedNotSilent) {
  PopulationConfig config = telemetry_config();
  config.max_sessions_per_tower = 3;
  int capped = -1;
  const std::vector<Arrival> uncapped_schedule =
      tower_arrivals(telemetry_config(), 0, 2);
  const std::vector<Arrival> capped_schedule =
      tower_arrivals(config, 0, 2, &capped);
  ASSERT_GT(uncapped_schedule.size(), 3u);
  EXPECT_EQ(capped_schedule.size(), 3u);
  EXPECT_EQ(capped,
            static_cast<int>(uncapped_schedule.size()) - 3);

  const PopulationReport report = run_population(config);
  EXPECT_EQ(report.towers[0].capped_arrivals, capped);
  const std::string text = population_text(report);
  EXPECT_NE(text.find("warning: tower 0 dropped"), std::string::npos);
  const std::string jsonl = population_jsonl(report);
  EXPECT_NE(jsonl.find("\"capped_arrivals\""), std::string::npos);
  const std::string tower_csv = population_tower_csv(report);
  EXPECT_NE(tower_csv.find("capped_arrivals"), std::string::npos);
}

TEST(PopulationTimeline, TimeOfPeakIsAnArrivalInstantAtOrBeforeHorizon) {
  const PopulationReport report = run_population(telemetry_config());
  for (const TowerReport& tower : report.towers) {
    ASSERT_GT(tower.peak_concurrent, 0);
    EXPECT_GT(tower.time_of_peak, 0);
    EXPECT_LE(tower.time_of_peak, 90.0);
  }
}

TEST(PopulationTimeline, DiagRollupAttributesAndFoldsAcrossTowers) {
  PopulationConfig config = telemetry_config();
  config.diagnose = true;
  config.diag_session_budget = 0;  // every session
  const PopulationReport report = run_population(config);
  ASSERT_TRUE(report.diagnosed);
  EXPECT_EQ(report.diag.cells, report.total_sessions);
  EXPECT_EQ(report.diag_skipped, 0);
  EXPECT_GT(report.diag.problem_s, 0);
  // The population rollup is exactly the tower fold.
  diag::DiagRollup folded;
  for (const TowerReport& tower : report.towers) {
    folded.merge_from(tower.diag);
  }
  EXPECT_EQ(folded.cells, report.diag.cells);
  EXPECT_DOUBLE_EQ(folded.problem_s, report.diag.problem_s);
  EXPECT_DOUBLE_EQ(folded.stall_s, report.diag.stall_s);
  // Per-bin blame seconds agree with the rollup's stall + startup totals.
  double binned = 0;
  for (int c = 0; c < diag::kCauseCount; ++c) {
    const int series = report.timeline.find(blame_series_name(c));
    ASSERT_GE(series, 0);
    for (int bin = 0; bin < report.timeline.bin_count(); ++bin) {
      binned += report.timeline.value(series, bin);
    }
  }
  EXPECT_NEAR(binned, report.diag.problem_s, 1e-6);
}

TEST(PopulationTimeline, DiagBudgetBoundsDiagnosedSessions) {
  PopulationConfig config = telemetry_config();
  config.diagnose = true;
  config.diag_session_budget = 2;
  const PopulationReport report = run_population(config);
  EXPECT_EQ(report.diag.cells, 2 * static_cast<int>(report.towers.size()));
  EXPECT_EQ(report.diag.cells + report.diag_skipped,
            report.total_sessions);
}

TEST(PopulationTimeline, SamplerForcesExactlyOneTickPerBin) {
  // An idle tower on a constant trace has nothing else to wake for, so
  // every executed tick is a bin close the sampler asked for.
  const net::BandwidthTrace trace = net::BandwidthTrace::constant(6e6, 600);
  net::Simulator sim(0.01);
  net::Link link(sim, trace);
  obs::Timeline timeline = make_tower_timeline(10, 60, false);
  int samples = 0;
  TowerSampler sampler(timeline, link, [&samples] {
    ++samples;
    return LiveSample{};
  });
  sim.add_tick_client(&sampler);
  sim.run_until(60);
  sampler.finalize(60);
  EXPECT_EQ(samples, 6);
  EXPECT_EQ(sim.ticks_executed(), 6u);
  EXPECT_EQ(sim.ticks_covered(), 6000u);
}

TEST(PopulationTimeline, SamplingLeavesThePopulationReportUnchanged) {
  PopulationConfig config = telemetry_config();
  const std::string with_timeline = population_text(run_population(config));
  config.collect_timeline = false;
  EXPECT_EQ(population_text(run_population(config)), with_timeline);
}

TEST(PopulationTimeline, HtmlDashboardHasOneRowPerTowerPlusPopulation) {
  const PopulationReport report = run_population(telemetry_config());
  const std::string html = population_timeline_html(report);
  EXPECT_NE(html.find("<tr><td>0</td>"), std::string::npos);
  EXPECT_NE(html.find("<tr><td>1</td>"), std::string::npos);
  EXPECT_NE(html.find("<tr><td>pop</td>"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
}

}  // namespace
}  // namespace vodx::pop
