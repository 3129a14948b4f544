#include "chaos/chaos.h"

#include <set>

#include "batch/sweep.h"
#include "batch/thread_pool.h"
#include "common/error.h"
#include "common/report.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/session_factory.h"
#include "net/simulator.h"
#include "services/service_catalog.h"
#include "trace/cellular_profiles.h"

namespace vodx::chaos {

namespace {

/// First violation, rendered for the report's detail line.
std::string first_violation(const InvariantReport& report) {
  if (report.violations.empty()) return "";
  const Violation& v = report.violations.front();
  return format("%s @ t=%.2f s: %s", v.invariant.c_str(), v.time,
                v.detail.c_str());
}

}  // namespace

std::uint64_t chaos_trace_seed(std::uint64_t seed) {
  return batch::derive_seed(seed, /*a=*/0x74726163ULL);  // "trac"
}

std::uint64_t chaos_content_seed(std::uint64_t seed) {
  return batch::derive_seed(seed, /*a=*/0x636F6E74ULL);  // "cont"
}

core::SessionConfig make_session(const std::string& service, int profile_id,
                                 Seconds duration, std::uint64_t chaos_seed,
                                 const faults::FaultPlan& plan,
                                 origin::Mode origin) {
  core::SessionFactory factory;
  factory.session_duration = duration;
  factory.content_duration = duration;
  core::SessionConfig session =
      factory.config(service, profile_id, chaos_trace_seed(chaos_seed),
                     chaos_content_seed(chaos_seed));
  session.fault_plan = plan;
  session.origin = origin::preset(origin);
  session.origin.seed =
      batch::derive_seed(chaos_seed, /*a=*/0x6F726967ULL);  // "orig"
  return session;
}

CheckedRun run_checked(core::SessionConfig config, const TestHook& hook) {
  CheckedRun out;
  obs::Observer local;
  local.trace.set_category_mask(obs::kEvidenceMask);
  if (config.observer == nullptr) config.observer = &local;
  try {
    out.result = core::run_session(config);
  } catch (const net::WatchdogError& e) {
    out.watchdog = true;
    out.watchdog_detail = e.what();
    return out;
  } catch (const std::exception& e) {
    // A fault plan must never be able to crash the engine: an escaped
    // exception is itself an invariant violation ("session.completes"),
    // reported and minimized like any other instead of killing the fuzz
    // run.
    out.report.violations.push_back(
        Violation{"session.completes", e.what(), 0});
    return out;
  }
  out.report = check_invariants(config, out.result, *config.observer);
  if (hook) hook(config, out.result, *config.observer, out.report);
  return out;
}

ChaosReport run_chaos(const ChaosConfig& config) {
  std::vector<std::string> service_pool = config.services;
  if (service_pool.empty()) {
    for (const services::ServiceSpec& spec : services::catalog()) {
      service_pool.push_back(spec.name);
    }
  }
  std::vector<int> profile_pool = config.profiles;
  if (profile_pool.empty()) {
    for (int id = 1; id <= trace::kProfileCount; ++id) {
      profile_pool.push_back(id);
    }
  }

  // Warm immutable shared statics before workers spawn (same rationale as
  // batch::run_sweep).
  services::catalog();
  for (int id : profile_pool) {
    if (id >= 1 && id <= trace::kProfileCount) trace::profile_mean(id);
  }

  // One cell session: the seed's draws plus the campaign's sim settings.
  const auto cell_session = [&](const ChaosRow& row,
                                const faults::FaultPlan& plan) {
    core::SessionConfig session =
        make_session(row.service, row.profile_id, config.duration, row.seed,
                     plan, config.origin);
    session.sim_settings() = config.sim_settings();
    return session;
  };

  ChaosReport report;
  report.rows = batch::parallel_map<ChaosRow>(
      config.seeds.size(), config.jobs, [&](std::size_t index) {
        const std::uint64_t seed = config.seeds[index];
        ChaosRow row;
        row.seed = seed;
        row.service = service_pool[batch::derive_seed(seed, /*a=*/0x5E41ULL) %
                                   service_pool.size()];
        row.profile_id =
            profile_pool[batch::derive_seed(seed, /*a=*/0x9120FULL) %
                         profile_pool.size()];

        const faults::FaultPlan plan = generate_plan(seed, config.gen);
        row.faults = fault_count(plan);
        row.plan = plan_summary(plan);

        const CheckedRun run =
            run_checked(cell_session(row, plan), config.test_hook);
        row.ok = run.ok();
        row.watchdog = run.watchdog;

        if (row.ok) return row;

        row.artifact.service = row.service;
        row.artifact.profile_id = row.profile_id;
        row.artifact.duration = config.duration;
        row.artifact.chaos_seed = seed;
        row.artifact.origin_mode = origin::to_string(config.origin);
        row.artifact.plan = plan;

        if (run.watchdog) {
          row.detail = run.watchdog_detail;
          row.artifact.invariants = "watchdog";
          return row;
        }

        row.invariants = run.report.summary();
        row.detail = first_violation(run.report);
        row.artifact.invariants = row.invariants;

        if (config.minimize) {
          // A candidate "still fails" when it reproduces at least one of the
          // *original* violated invariants; new, unrelated violations don't
          // count (they would steer the shrink toward a different bug).
          std::set<std::string> original;
          for (const Violation& v : run.report.violations) {
            original.insert(v.invariant);
          }
          const auto still_fails = [&](const faults::FaultPlan& candidate) {
            const CheckedRun probe =
                run_checked(cell_session(row, candidate), config.test_hook);
            if (probe.watchdog) return false;
            for (const Violation& v : probe.report.violations) {
              if (original.count(v.invariant) > 0) return true;
            }
            return false;
          };
          const MinimizeResult shrunk = minimize(plan, still_fails);
          row.minimized = true;
          row.minimized_faults = fault_count(shrunk.plan);
          row.minimize_runs = shrunk.runs;
          row.artifact.plan = shrunk.plan;
        }
        return row;
      });

  for (const ChaosRow& row : report.rows) {
    if (row.watchdog) {
      ++report.watchdogs;
    } else if (!row.ok) {
      ++report.violations;
    }
  }
  return report;
}

CheckedRun replay(const ReproArtifact& artifact,
                  const net::SimSettings& settings, const TestHook& hook) {
  core::SessionConfig session = make_session(
      artifact.service, artifact.profile_id, artifact.duration,
      artifact.chaos_seed, artifact.plan,
      origin::parse_mode(artifact.origin_mode));
  session.sim_settings() = settings;
  return run_checked(std::move(session), hook);
}

std::string chaos_report_text(const ChaosReport& report) {
  Table table;
  table.layout(2, Table::Header::kPlain);
  table.add_column("seed", Format::integer(), Table::Align::kRight, 8);
  table.add_column("service", Format{}, Table::Align::kLeft, 8);
  table.add_column("profile", Format::integer(), Table::Align::kRight, 7);
  table.add_column("faults", Format::integer(), Table::Align::kRight, 6);
  table.add_column("status");
  for (const ChaosRow& row : report.rows) {
    table.add_row(row.seed, row.service, row.profile_id, row.faults,
                   row.ok         ? std::string("ok")
                   : row.watchdog ? std::string("WATCHDOG")
                                  : "VIOLATION " + row.invariants);
  }
  Report text;
  text.line(format("chaos: %zu seed(s) — %d violation(s), %d watchdog "
                   "abort(s)",
                   report.rows.size(), report.violations, report.watchdogs));
  text.line("").section("", std::move(table));
  for (const ChaosRow& row : report.rows) {
    if (row.ok) continue;
    text.line("").line(format(
        "seed %llu — %s", static_cast<unsigned long long>(row.seed),
        row.watchdog ? "WATCHDOG" : ("VIOLATION " + row.invariants).c_str()));
    text.line("  plan: " + row.plan);
    if (!row.detail.empty()) text.line("  first: " + row.detail);
    if (row.minimized) {
      text.line(format("  minimized: %zu -> %zu fault(s) in %d oracle run(s)",
                       row.faults, row.minimized_faults, row.minimize_runs));
      text.line("  minimized plan: " + plan_summary(row.artifact.plan));
    }
  }
  return text.text();
}

}  // namespace vodx::chaos
