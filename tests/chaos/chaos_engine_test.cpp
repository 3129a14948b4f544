// The chaos engine end to end: jobs-independence of the report, the
// detect -> minimize -> repro pipeline against a hook-injected violation,
// deterministic watchdog aborts, and the evidence mask of a chaos session's
// own observer.
#include "chaos/chaos.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/error.h"
#include "core/report.h"
#include "services/service_catalog.h"
#include "trace/cellular_profiles.h"

namespace vodx::chaos {
namespace {

ChaosConfig quick_config(std::vector<std::uint64_t> seeds) {
  ChaosConfig config;
  config.seeds = std::move(seeds);
  config.services = {"H1", "D1"};
  config.profiles = {1, 7};
  config.duration = 15;
  config.wall_budget = 0;  // tests bound their own runtime
  return config;
}

TEST(ChaosEngine, SeedAloneDeterminesServiceProfileAndPlan) {
  ChaosConfig config = quick_config({0, 1, 2, 3});
  const ChaosReport a = run_chaos(config);
  const ChaosReport b = run_chaos(config);
  ASSERT_EQ(a.rows.size(), 4u);
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].seed, config.seeds[i]);
    EXPECT_EQ(a.rows[i].service, b.rows[i].service);
    EXPECT_EQ(a.rows[i].profile_id, b.rows[i].profile_id);
    EXPECT_EQ(a.rows[i].plan, b.rows[i].plan);
    EXPECT_EQ(a.rows[i].ok, b.rows[i].ok);
  }
  EXPECT_EQ(chaos_report_text(a), chaos_report_text(b));
}

TEST(ChaosEngine, ReportIsByteIdenticalAcrossJobCounts) {
  ChaosConfig config = quick_config({0, 1, 2, 3, 4, 5, 6, 7});
  config.jobs = 1;
  const std::string serial = chaos_report_text(run_chaos(config));
  config.jobs = 4;
  const std::string parallel = chaos_report_text(run_chaos(config));
  EXPECT_EQ(serial, parallel);
}

TEST(ChaosEngine, MakeSessionRejectsBadCoordinates) {
  EXPECT_THROW(make_session("H1", 0, 30, 1, {}), ConfigError);
  EXPECT_THROW(make_session("H1", 99, 30, 1, {}), ConfigError);
  EXPECT_THROW(make_session("NOPE", 7, 30, 1, {}), ConfigError);
}

TEST(ChaosEngine, TraceAndContentSeedsArePureAndDistinct) {
  EXPECT_EQ(chaos_trace_seed(5), chaos_trace_seed(5));
  EXPECT_NE(chaos_trace_seed(5), chaos_trace_seed(6));
  EXPECT_NE(chaos_trace_seed(5), chaos_content_seed(5));
}

// The full pipeline, driven by a synthetic bug: the hook "fails" whenever
// the session ran under a plan carrying both a reset and a latency fault.
// The engine must catch it, shrink the plan to the two faults that matter,
// and emit an artifact whose replay still reproduces the violation.
TEST(ChaosEngine, HookViolationIsMinimizedAndReplaysFromArtifact) {
  // Find a seed whose generated plan has the reset+latency pair plus noise
  // to shrink away (pure search, no sessions).
  std::uint64_t seed = 0;
  bool found = false;
  for (; seed < 512; ++seed) {
    const faults::FaultPlan plan = generate_plan(seed);
    if (!plan.resets.empty() && !plan.latency.empty() &&
        fault_count(plan) >= 4) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no seed under 512 draws reset+latency+noise";

  const TestHook hook = [](const core::SessionConfig& config,
                           const core::SessionResult&, const obs::Observer&,
                           InvariantReport& report) {
    if (config.fault_plan && !config.fault_plan->resets.empty() &&
        !config.fault_plan->latency.empty()) {
      report.violations.push_back(
          {"hook.reset_latency", "synthetic pairing bug", 0});
    }
  };

  ChaosConfig config = quick_config({seed});
  config.duration = 10;
  config.test_hook = hook;
  const ChaosReport report = run_chaos(config);
  ASSERT_EQ(report.rows.size(), 1u);
  const ChaosRow& row = report.rows[0];
  EXPECT_EQ(report.violations, 1);
  EXPECT_FALSE(row.ok);
  EXPECT_NE(row.invariants.find("hook.reset_latency"), std::string::npos);
  ASSERT_TRUE(row.minimized);
  EXPECT_LE(row.minimized_faults, 2u);
  EXPECT_GT(row.minimize_runs, 0);
  EXPECT_LT(row.minimized_faults, row.faults);

  // The artifact is self-contained: parse it back from its own JSON and
  // replay — the violation must still fire.
  const ReproArtifact artifact = parse_repro(to_json(row.artifact));
  EXPECT_EQ(artifact.chaos_seed, seed);
  EXPECT_EQ(artifact.service, row.service);
  const CheckedRun replayed = replay(artifact, {}, hook);
  EXPECT_FALSE(replayed.ok());
  ASSERT_FALSE(replayed.report.violations.empty());
  EXPECT_EQ(replayed.report.violations[0].invariant, "hook.reset_latency");
}

TEST(ChaosEngine, RunCheckedNeverLetsASessionExceptionEscape) {
  // A degenerate config (negative duration) must come back as a report —
  // clean or violated — never as an exception out of run_checked.
  core::SessionConfig config = make_session("H1", 7, 5, 1, {});
  config.session_duration = -1;
  EXPECT_NO_THROW({
    const CheckedRun run = run_checked(config);
    (void)run;
  });
}

TEST(ChaosEngine, TinyWallBudgetTripsTheWatchdogAndSkipsMinimization) {
  ChaosConfig config = quick_config({0, 1});
  config.duration = 30;
  config.wall_budget = 1e-9;  // any session exceeds this at the first check
  const ChaosReport report = run_chaos(config);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.watchdogs, 2);
  EXPECT_EQ(report.violations, 0);
  EXPECT_FALSE(report.ok());
  for (const ChaosRow& row : report.rows) {
    EXPECT_TRUE(row.watchdog);
    EXPECT_FALSE(row.ok);
    EXPECT_FALSE(row.minimized) << "watchdog aborts are not minimized";
    EXPECT_NE(row.detail.find("watchdog"), std::string::npos);
    EXPECT_EQ(row.artifact.invariants, "watchdog");
  }
  const std::string text = chaos_report_text(report);
  EXPECT_NE(text.find("WATCHDOG"), std::string::npos);
  EXPECT_NE(text.find("2 watchdog abort(s)"), std::string::npos);
}

TEST(ChaosEngine, ReportTextIsStableAndNamesEveryRow) {
  ChaosConfig config = quick_config({3, 4});
  const ChaosReport report = run_chaos(config);
  const std::string text = chaos_report_text(report);
  EXPECT_NE(text.find("chaos: 2 seed(s)"), std::string::npos);
  for (const ChaosRow& row : report.rows) {
    EXPECT_NE(text.find(row.service), std::string::npos);
  }
}

/// What a checked run showed its hook: the QoE row, the sim.ticks counter
/// and the tcp.cwnd_kb samples the observer kept.
struct Evidence {
  CheckedRun run;
  std::string qoe_row;
  std::int64_t ticks = -1;
  int cwnd_samples = 0;
};

/// run_checked with `observer` (nullptr: the one run_checked creates).
Evidence run_with(core::SessionConfig session, obs::Observer* observer) {
  Evidence out;
  session.observer = observer;
  out.run = run_checked(
      std::move(session),
      [&out](const core::SessionConfig&, const core::SessionResult& result,
             const obs::Observer& seen, InvariantReport&) {
        out.qoe_row = core::qoe_csv_row("", result);
        const obs::MetricsSnapshot snapshot =
            seen.metrics.snapshot(result.session_end);
        const obs::MetricsSnapshot::Entry* ticks = snapshot.find("sim.ticks");
        if (ticks != nullptr) out.ticks = ticks->count;
        seen.trace.for_each([&out](const obs::Event& event) {
          if (std::string_view(event.name) == "tcp.cwnd_kb") {
            ++out.cwnd_samples;
          }
        });
      });
  return out;
}

void expect_same_report(const InvariantReport& a, const InvariantReport& b) {
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].invariant, b.violations[i].invariant);
    EXPECT_EQ(a.violations[i].detail, b.violations[i].detail);
    EXPECT_EQ(a.violations[i].time, b.violations[i].time);
  }
  EXPECT_EQ(a.skipped, b.skipped);
}

// run_checked's own observer leaves out the cwnd series: the catalog must
// reach the same verdict, and the session the same outcome, as under a
// caller's full-mask observer, on the plain path and behind the origin tier.
TEST(ChaosEngine, EvidenceMaskHidesNoViolation) {
  constexpr Seconds kDuration = 60;
  const auto& catalog = services::catalog();
  for (const origin::Mode mode :
       {origin::Mode::kNone, origin::Mode::kHardened}) {
    GenOptions gen;
    gen.horizon = kDuration;
    gen.origin_faults = mode != origin::Mode::kNone;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << ", origin "
                                        << origin::to_string(mode));
      const core::SessionConfig session = make_session(
          catalog[seed % catalog.size()].name,
          1 + static_cast<int>(seed % trace::kProfileCount), kDuration, seed,
          generate_plan(seed, gen), mode);
      obs::Observer full;
      const Evidence unmasked = run_with(session, &full);
      const Evidence masked = run_with(session, nullptr);
      ASSERT_FALSE(unmasked.run.watchdog);
      ASSERT_FALSE(masked.run.watchdog);
      expect_same_report(masked.run.report, unmasked.run.report);
      EXPECT_EQ(masked.qoe_row, unmasked.qoe_row);
      EXPECT_EQ(masked.ticks, unmasked.ticks);
      EXPECT_GT(masked.ticks, 0);
      EXPECT_EQ(masked.cwnd_samples, 0);
      EXPECT_GT(unmasked.cwnd_samples, 0);
    }
  }
}

}  // namespace
}  // namespace vodx::chaos
