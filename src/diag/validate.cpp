#include "diag/validate.h"

#include <algorithm>

#include "batch/sweep.h"
#include "common/report.h"
#include "common/strings.h"
#include "faults/fault_plan.h"
#include "services/service_catalog.h"

namespace vodx::diag {

namespace {

struct Span {
  Seconds start = 0;
  Seconds end = 0;
};

/// Sort + coalesce overlapping/adjacent spans so overlap arithmetic never
/// double-counts time covered by several fault windows.
std::vector<Span> merge_spans(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start < b.start; });
  std::vector<Span> out;
  for (const Span& span : spans) {
    if (span.end <= span.start) continue;
    if (!out.empty() && span.start <= out.back().end) {
      out.back().end = std::max(out.back().end, span.end);
      continue;
    }
    out.push_back(span);
  }
  return out;
}

Seconds overlap(const std::vector<Span>& merged, Seconds start, Seconds end) {
  Seconds total = 0;
  for (const Span& span : merged) {
    const Seconds lo = std::max(span.start, start);
    const Seconds hi = std::min(span.end, end);
    if (hi > lo) total += hi - lo;
  }
  return total;
}

/// Ground truth: every fired fault instant and every plan blackout window,
/// extended by the influence window the attributor itself uses.
std::vector<Span> truth_windows(const obs::TraceSink& trace,
                                const std::optional<faults::FaultPlan>& plan,
                                const DiagOptions& diag) {
  std::vector<Span> spans;
  trace.for_each([&](const obs::Event& event) {
    if (event.category == obs::Category::kFault &&
        event.kind == obs::EventKind::kInstant) {
      spans.push_back({event.sim_time, event.sim_time + diag.fault_influence});
    }
  });
  if (plan.has_value()) {
    for (const faults::BlackoutFault& b : plan->blackouts) {
      spans.push_back(
          {b.start, b.start + b.duration + diag.fault_influence});
    }
  }
  return merge_spans(spans);
}

std::vector<Span> widen(const std::vector<Span>& merged, Seconds grace) {
  std::vector<Span> spans;
  spans.reserve(merged.size());
  for (const Span& span : merged) {
    spans.push_back({span.start, span.end + grace});
  }
  return merge_spans(spans);
}

}  // namespace

double ValidationReport::min_precision() const {
  double best = 1;
  for (const ScenarioScore& score : scores) {
    best = std::min(best, score.precision());
  }
  return best;
}

double ValidationReport::min_recall() const {
  double best = 1;
  for (const ScenarioScore& score : scores) {
    best = std::min(best, score.recall());
  }
  return best;
}

bool ValidationReport::pass(double threshold) const {
  return min_precision() >= threshold && min_recall() >= threshold;
}

ValidationReport validate(const ValidateOptions& options) {
  std::vector<services::ServiceSpec> specs;
  if (!options.services.empty()) {
    for (const std::string& name : options.services) {
      specs.push_back(services::service(name));
    }
  } else {
    const std::vector<services::ServiceSpec>& all = services::catalog();
    const int n = std::min<int>(options.service_count,
                                static_cast<int>(all.size()));
    specs.assign(all.begin(), all.begin() + n);
  }

  ValidationReport report;
  for (const faults::Scenario& scenario : faults::scenario_catalog()) {
    ScenarioScore score;
    score.scenario = scenario.name;

    batch::SweepConfig config;
    config.services = specs;
    config.profiles = {options.profile_id};
    config.fault_scenarios = {scenario.name};
    config.session_duration = options.duration;
    config.content_duration = options.duration;
    config.observe = [&score, &options](const batch::CellResult& cell,
                                        const obs::Observer& observer) {
      if (!cell.ok) return;
      ++score.cells;
      std::optional<faults::FaultPlan> plan;
      if (cell.fault != "none") {
        faults::FaultPlan p = faults::scenario(cell.fault);
        p.seed = batch::fault_seed_for(cell.seed, cell.cell.service_index,
                                       cell.cell.profile_index,
                                       cell.cell.fault_index);
        plan = std::move(p);
      }
      const Diagnosis diagnosis =
          diagnose(cell.result, observer, plan, options.diag);
      const std::vector<Span> truth =
          truth_windows(observer.trace, plan, options.diag);
      const std::vector<Span> lenient =
          widen(truth, options.carry_grace);
      for (const IntervalDiagnosis& interval : diagnosis.intervals) {
        score.truth_s += overlap(truth, interval.start, interval.end);
        for (const BlameSpan& span : interval.spans) {
          if (span.cause != Cause::kFaultInjected) continue;
          score.blamed_s += span.duration();
          score.truth_hit_s += overlap(truth, span.start, span.end);
          score.blamed_hit_s += overlap(lenient, span.start, span.end);
        }
      }
    };
    batch::run_sweep(config);
    report.scores.push_back(std::move(score));
  }
  return report;
}

std::string validation_text(const ValidationReport& report,
                            double threshold) {
  Table table({"scenario", "cells", "truth_s", "fault_blamed_s", "precision",
               "recall"});
  for (const ScenarioScore& score : report.scores) {
    table.add_row({score.scenario, std::to_string(score.cells),
                   format("%.2f", score.truth_s),
                   format("%.2f", score.blamed_s),
                   format("%.3f", score.precision()),
                   format("%.3f", score.recall())});
  }
  return Report()
      .line("fault-attribution validation (per catalog scenario):")
      .section("", std::move(table))
      .line("")
      .line(format("minimum precision %.3f, minimum recall %.3f vs "
                   "threshold %.2f: %s",
                   report.min_precision(), report.min_recall(), threshold,
                   report.pass(threshold) ? "PASS" : "FAIL"))
      .text();
}

}  // namespace vodx::diag
