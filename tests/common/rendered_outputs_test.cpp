// Every renderer's bytes, pinned as FNV-1a digests on small fixed runs: the
// sweep exports and report, a diagnosed pop run behind the hardened origin
// with one capped tower, the diag views, metrics and the session CSVs. Two
// hand-built reports put cells wider than the fixed-width text columns
// (a chaos seed past eight digits, long service names, a tower value past
// ten characters), so the overflow rule is pinned too: such a cell is
// written whole and the rest of the line shifts right, as printf does.
//
// A mismatch prints every digest of the case; after an intentional output
// change, paste the printed table over the pins.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "batch/report.h"
#include "batch/sweep.h"
#include "chaos/chaos.h"
#include "chaos/plan_gen.h"
#include "core/report.h"
#include "core/session.h"
#include "diag/diagnose.h"
#include "diag/rollup.h"
#include "diag/validate.h"
#include "net/bandwidth_trace.h"
#include "obs/event.h"
#include "obs/export.h"
#include "obs/observer.h"
#include "origin/origin.h"
#include "pop/pop_timeline.h"
#include "pop/population.h"
#include "services/service_catalog.h"

namespace vodx {
namespace {

std::string fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

using Outputs = std::vector<std::pair<std::string, std::string>>;
using Pins = std::vector<std::pair<std::string, std::string>>;

/// Compares each output's digest with its pin, by name and in order.
void expect_pinned(const Outputs& outputs, const Pins& pins) {
  std::string table;
  bool same = outputs.size() == pins.size();
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const std::string digest = fnv1a(outputs[i].second);
    table += "      {\"" + outputs[i].first + "\", \"" + digest + "\"},\n";
    same = same && pins[i].first == outputs[i].first &&
           pins[i].second == digest;
  }
  EXPECT_TRUE(same) << "rendered outputs moved; digests now:\n" << table;
}

TEST(RenderedOutputs, SweepExportsAndReport) {
  batch::SweepConfig config;
  config.services = {services::service("H1"), services::service("D2")};
  config.profiles = {3, 7, 99};  // 99: a failed cell in every export
  config.seeds = {0, 1};
  config.fault_scenarios = {"none", "flaky-origin"};
  config.session_duration = 90;
  config.content_duration = 120;
  config.collect_metrics = true;
  const batch::SweepResult result = batch::run_sweep(config);
  const batch::SweepMetrics metrics = batch::aggregate_metrics(result);
  expect_pinned(
      {{"sweep_csv", batch::sweep_csv(result)},
       {"sweep_jsonl", batch::sweep_jsonl(result)},
       {"report_text", batch::report_text(metrics)},
       {"report_jsonl", batch::report_jsonl(result, metrics)},
       {"report_html", batch::report_html(metrics)}},
      {
          {"sweep_csv", "d1867d9e01049885"},
          {"sweep_jsonl", "6ee6ab1f36e2a06e"},
          {"report_text", "ac2587be69b2fba4"},
          {"report_jsonl", "067f01352fc3e89c"},
          {"report_html", "84f4171098921428"},
      });
}

TEST(RenderedOutputs, DiagnosedPopulationBehindTheHardenedOrigin) {
  pop::PopulationConfig config;
  config.towers = {3, 7};
  config.seed = 3;
  config.horizon = 240;
  config.arrivals.rate_per_min = 5;
  config.watch_time = 60;
  config.max_sessions_per_tower = 20;  // tower 0 draws 23, tower 1 17
  config.collect_timeline = true;
  config.diagnose = true;
  config.origin = origin::hardened_origin();
  const pop::PopulationReport report = pop::run_population(config);
  ASSERT_TRUE(report.diagnosed);
  ASSERT_TRUE(report.origin_enabled);
  int capped = 0;
  std::string arrivals;
  for (const pop::TowerReport& tower : report.towers) {
    capped += tower.capped_arrivals > 0 ? 1 : 0;
    arrivals += " " + std::to_string(tower.sessions + tower.capped_arrivals);
  }
  ASSERT_EQ(capped, 1) << "the fixture wants one capped tower; arrivals:"
                       << arrivals;
  // The tower CSV and the JSONL's tower rows end in the tower's simulator
  // work counters (ticks executed, client ticks, fast-forwards), so those
  // two pins also move when the core does less work for the same output.
  expect_pinned(
      {{"population_text", pop::population_text(report)},
       {"population_csv", pop::population_csv(report)},
       {"population_tower_csv", pop::population_tower_csv(report)},
       {"population_jsonl", pop::population_jsonl(report)},
       {"timeline_csv", pop::population_timeline_csv(report)},
       {"timeline_jsonl", pop::population_timeline_jsonl(report)},
       {"timeline_html", pop::population_timeline_html(report)}},
      {
          {"population_text", "6ed293812a223fa9"},
          {"population_csv", "2202e179cbc4aa19"},
          {"population_tower_csv", "056de3ab109c49d8"},
          {"population_jsonl", "cab402a9133b1ecb"},
          {"timeline_csv", "bc97515e4bb73085"},
          {"timeline_jsonl", "c5ed17c27ab811b4"},
          {"timeline_html", "22e07b40844ed4f6"},
      });
}

TEST(RenderedOutputs, DiagnosisViews) {
  batch::SweepConfig config;
  config.services = {services::service("H1"), services::service("D3")};
  config.profiles = {3};
  config.fault_scenarios = {"none", "blackout"};
  config.session_duration = 90;
  config.content_duration = 120;
  const diag::SweepDiagnosis sweep = diag::diagnose_sweep(config);

  obs::Observer observer;
  observer.trace.set_category_mask(obs::kEvidenceMask);
  core::SessionConfig session;
  session.spec = services::service("H1");
  session.trace = net::BandwidthTrace::constant(1.2e6, 90);
  session.session_duration = 90;
  session.content_duration = 120;
  session.observer = &observer;
  const core::SessionResult result = core::run_session(session);
  const diag::Diagnosis diagnosis = diag::diagnose(result, observer);

  diag::ValidationReport validation;
  diag::ScenarioScore score;
  score.scenario = "flaky-origin";
  score.cells = 12;
  score.truth_s = 31.25;
  score.truth_hit_s = 30.5;
  score.blamed_s = 29.875;
  score.blamed_hit_s = 29.0;
  validation.scores = {score, diag::ScenarioScore{"blackout", 3}};
  expect_pinned(
      {{"diagnosis_text", diag::diagnosis_text(diagnosis)},
       {"diag_text", diag::diag_text(sweep)},
       {"diag_jsonl", diag::diag_jsonl(sweep)},
       {"diag_html", diag::diag_html(sweep)},
       {"validation_text", diag::validation_text(validation, 0.9)}},
      {
          {"diagnosis_text", "5375b3e39cb6b8b6"},
          {"diag_text", "c39ecbda7fdbe75b"},
          {"diag_jsonl", "f0aa0da5d0ccd18b"},
          {"diag_html", "82dfce93f59e4d70"},
          {"validation_text", "f026623a4e23515b"},
      });
}

TEST(RenderedOutputs, MetricsAndSessionCsv) {
  obs::Observer observer;
  core::SessionConfig session;
  session.spec = services::service("D2");
  session.trace = net::BandwidthTrace::constant(3e6, 90);
  session.session_duration = 90;
  session.content_duration = 120;
  session.observer = &observer;
  const core::SessionResult result = core::run_session(session);
  expect_pinned(
      {{"metrics_report",
        obs::metrics_report(observer.metrics.snapshot(result.session_end))},
       {"qoe_csv_row", core::qoe_csv_row("D2 steady", result)},
       {"buffer_csv", core::buffer_csv(result)}},
      {
          {"metrics_report", "3f3c7835a426435c"},
          {"qoe_csv_row", "9b0099133f606787"},
          {"buffer_csv", "72fd0f1eeeef8f28"},
      });
}

/// A two-tower report with values wider than population_text's columns.
pop::PopulationReport overflowing_population() {
  pop::PopulationReport report;
  pop::TowerReport wide;
  wide.profile_id = 12;
  wide.sessions = 123456789;
  wide.capped_arrivals = 3;
  wide.peak_concurrent = 1234567;
  wide.time_of_peak = 98765432.1;
  wide.startup = {12345678.912, 0.125, 1e9};
  wide.stall = {-0.004, 2.5, 77.777};
  wide.jain = 0.98765;
  wide.mean_mbps = 123456789.123;
  wide.diag.cells = 4;
  wide.diag_skipped = 1;
  wide.diag.stall_s = 10;
  wide.diag.stall_blamed_s[0] = 12345678.5;
  wide.sim.ticks_covered = 12345678901234ull;
  pop::SessionOutcome outcome;
  outcome.ordinal = 7;
  outcome.service = "LONGSERVICE-9";
  outcome.arrival = 1.0005;
  outcome.departure = 61.25;
  outcome.startup_delay = -1;
  outcome.stall_time = 0.0625;
  outcome.stall_count = 2;
  outcome.total_bytes = 9876543210;
  outcome.mbps = 3.14159;
  outcome.final_state = "stalled";
  wide.outcomes = {outcome};
  pop::TowerReport plain;
  plain.profile_id = 7;
  plain.sessions = 2;
  plain.startup = {1.5, 2.25, 3};
  report.towers = {wide, plain};
  report.total_sessions = 123456791;
  report.never_started = 1;
  report.startup = {1.5, 2.5, 1e9};
  report.stall = {0, 0.5, 77.777};
  pop::ServiceRollup rollup;
  rollup.service = "LONGSERVICE-9";
  rollup.sessions = 1234567890;
  rollup.startup = {12345678.5, 1, 2};
  rollup.mean_mbps = 0.5;
  report.by_service = {rollup, pop::ServiceRollup{"H1", 0, {}, {}, 0}};
  report.diagnosed = true;
  report.diag = wide.diag;
  report.diag.trace_dropped = 17;
  report.diag_skipped = 1;
  report.origin_enabled = true;
  report.origin_totals.hits = 9;
  report.origin_totals.misses = 3;
  report.origin_totals.consistency_failures = 2;
  return report;
}

TEST(RenderedOutputs, HandBuiltPopulationOverflowsItsColumns) {
  const pop::PopulationReport report = overflowing_population();
  const std::string text = pop::population_text(report);
  EXPECT_NE(text.find("LONGSERVICE-9 1234567890 12345678.50"),
            std::string::npos)
      << text;
  expect_pinned({{"population_text", text},
                 {"population_csv", pop::population_csv(report)},
                 {"population_tower_csv", pop::population_tower_csv(report)},
                 {"population_jsonl", pop::population_jsonl(report)}},
                {
                    {"population_text", "5ba477048e03f544"},
                    {"population_csv", "c1f7c3e118f311ba"},
                    {"population_tower_csv", "38d23e66740cb76d"},
                    {"population_jsonl", "edd882a9ff249615"},
                });
}

TEST(RenderedOutputs, HandBuiltChaosReportOverflowsItsColumns) {
  chaos::ChaosReport report;
  chaos::ChaosRow ok;
  ok.seed = 12345678901ull;
  ok.service = "LONGSERVICE-9";
  ok.profile_id = 12345678;
  ok.faults = 3;
  ok.plan = "latency x3";
  ok.ok = true;
  chaos::ChaosRow violation;
  violation.seed = 7;
  violation.service = "H1";
  violation.profile_id = 4;
  violation.faults = 5;
  violation.plan = "latency x2, errors x3";
  violation.invariants = "bytes_conserved,stall_accounting";
  violation.detail = "stall time 3.25 s exceeds wall time";
  violation.minimized = true;
  violation.minimized_faults = 1;
  violation.minimize_runs = 9;
  violation.artifact.plan.errors.push_back(faults::ErrorFault{});
  chaos::ChaosRow watchdog;
  watchdog.seed = 8;
  watchdog.service = "D3";
  watchdog.profile_id = 14;
  watchdog.faults = 123456;
  watchdog.plan = "blackout x1";
  watchdog.watchdog = true;
  watchdog.detail = "tick budget exhausted";
  report.rows = {ok, violation, watchdog};
  report.violations = 1;
  report.watchdogs = 1;
  const std::string text = chaos::chaos_report_text(report);
  EXPECT_NE(text.find("12345678901  LONGSERVICE-9  12345678       3  ok\n"),
            std::string::npos)
      << text;
  expect_pinned({{"chaos_report_text", text}},
                {
                    {"chaos_report_text", "d474e563d5dbc451"},
                });
}

}  // namespace
}  // namespace vodx
