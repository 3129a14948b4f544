#include "diag/validate.h"

#include <algorithm>

#include "batch/sweep.h"
#include "common/report.h"
#include "common/strings.h"
#include "faults/fault_plan.h"
#include "services/service_catalog.h"

namespace vodx::diag {

namespace {

/// Catalog services run per scenario. They span the design space:
/// persistent HLS, DASH, and a non-persistent-connection service.
constexpr const char* kServices[] = {"H1", "H3", "D1"};
/// Profile 2 leaves little bandwidth margin, so injected faults actually
/// turn into stalls that overlap their windows — a fault-free profile
/// would make the harness vacuously pass.
constexpr int kProfileId = 2;
/// Slack appended to truth windows when scoring precision, covering
/// bounded carry-forward past the influence window.
constexpr Seconds kCarryGrace = 16.0;

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
                                const std::optional<faults::FaultPlan>& plan) {
  std::vector<Span> spans;
  trace.for_each([&](const obs::Event& event) {
    if (event.category == obs::Category::kFault &&
        event.kind == obs::EventKind::kInstant) {
      spans.push_back({event.sim_time, event.sim_time + kFaultInfluence});
    }
  });
  if (plan.has_value()) {
    for (const faults::BlackoutFault& b : plan->blackouts) {
      spans.push_back({b.start, b.start + b.duration + kFaultInfluence});
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

ValidationReport validate(Seconds duration) {
  std::vector<services::ServiceSpec> specs;
  for (const char* name : kServices) specs.push_back(services::service(name));

  ValidationReport report;
  for (const faults::Scenario& scenario : faults::scenario_catalog()) {
    ScenarioScore score;
    score.scenario = scenario.name;

    batch::SweepConfig config;
    config.services = specs;
    config.profiles = {kProfileId};
    config.fault_scenarios = {scenario.name};
    config.session_duration = duration;
    config.content_duration = duration;
    config.observe = [&score](const batch::CellResult& cell,
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
      const Diagnosis diagnosis = diagnose(cell.result, observer, plan);
      const std::vector<Span> truth = truth_windows(observer.trace, plan);
      const std::vector<Span> lenient = widen(truth, kCarryGrace);
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
  Table table({"scenario"});
  table.add_column("cells", Format::integer());
  table.add_column("truth_s", Format::fixed(2));
  table.add_column("fault_blamed_s", Format::fixed(2));
  table.add_column("precision", Format::fixed(3));
  table.add_column("recall", Format::fixed(3));
  for (const ScenarioScore& score : report.scores) {
    table.add_row(score.scenario, score.cells, score.truth_s,
                   score.blamed_s, score.precision(), score.recall());
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
