#include "diag/rollup.h"

#include "common/json.h"
#include "common/strings.h"
#include "faults/fault_plan.h"

namespace vodx::diag {

namespace {

DiagRollup& rollup_for(std::vector<DiagRollup>& rollups,
                       const std::string& key) {
  for (DiagRollup& rollup : rollups) {
    if (rollup.key == key) return rollup;
  }
  rollups.push_back(DiagRollup{});
  rollups.back().key = key;
  return rollups.back();
}

struct Dimension {
  const char* title;
  const char* scope;  ///< JSONL "scope" value
  const std::vector<DiagRollup>* rollups;
};

std::vector<Dimension> dimensions(const SweepDiagnosis& diagnosis) {
  return {{"root causes by service", "diag.service", &diagnosis.by_service},
          {"root causes by profile", "diag.profile", &diagnosis.by_profile},
          {"root causes by fault", "diag.fault", &diagnosis.by_fault}};
}

/// The rollup table's columns: cells, problem and stall time, the share
/// attributed, the mean confidence, then seconds blamed per cause.
Table diag_table() {
  Table table({"key"});
  table.add_column("cells", Format::integer());
  table.add_column("problem_s", Format::fixed(2));
  table.add_column("stall_s", Format::fixed(2));
  table.add_column("attributed", Format::fixed(1, "%"));
  table.add_column("conf", Format::fixed(2));
  for (Cause cause : all_causes()) {
    table.add_column(short_label(cause), Format::fixed(2));
  }
  return table;
}

/// Appends one rollup's row; a confidence or blame of zero shows as "-".
void add_diag_row(Table& table, const DiagRollup& rollup) {
  const double conf = rollup.mean_confidence();
  table.add(rollup.key).add(rollup.cells).add(rollup.problem_s);
  table.add(rollup.stall_s).add(100 * rollup.attributed_fraction());
  table.add(conf > 0 ? std::optional(conf) : std::nullopt);
  for (Cause cause : all_causes()) {
    const double s = rollup.blamed_s[static_cast<int>(cause)];
    table.add(s > 0 ? std::optional(s) : std::nullopt);
  }
}

Table dimension_table(const Dimension& dim) {
  Table table = diag_table();
  for (const DiagRollup& rollup : *dim.rollups) add_diag_row(table, rollup);
  return table;
}

}  // namespace

void DiagRollup::fold(const Diagnosis& diagnosis) {
  ++cells;
  problem_s += diagnosis.problem_s();
  stall_s += diagnosis.stall_s();
  startup_s += diagnosis.problem_s() - diagnosis.stall_s();
  for (int c = 0; c < kCauseCount; ++c) {
    blamed_s[c] += diagnosis.blamed_s[c];
    stall_blamed_s[c] += diagnosis.stall_blamed_s[c];
    conf_weight[c] += diagnosis.confidence[c] * diagnosis.blamed_s[c];
  }
  trace_dropped += diagnosis.trace_dropped;
}

void DiagRollup::merge_from(const DiagRollup& other) {
  cells += other.cells;
  problem_s += other.problem_s;
  stall_s += other.stall_s;
  startup_s += other.startup_s;
  for (int c = 0; c < kCauseCount; ++c) {
    blamed_s[c] += other.blamed_s[c];
    stall_blamed_s[c] += other.stall_blamed_s[c];
    conf_weight[c] += other.conf_weight[c];
  }
  trace_dropped += other.trace_dropped;
}

double DiagRollup::attributed_fraction() const {
  if (problem_s <= 0) return 1;
  return 1.0 - blamed_s[static_cast<int>(Cause::kUnknown)] / problem_s;
}

double DiagRollup::stall_attributed_fraction() const {
  if (stall_s <= 0) return 1;
  return 1.0 - stall_blamed_s[static_cast<int>(Cause::kUnknown)] / stall_s;
}

double DiagRollup::mean_confidence() const {
  double weight = 0;
  double time = 0;
  for (Cause cause : all_causes()) {
    if (cause == Cause::kUnknown) continue;
    const int c = static_cast<int>(cause);
    weight += conf_weight[c];
    time += blamed_s[c];
  }
  return time > 0 ? weight / time : 0;
}

void fold_cell(SweepDiagnosis& out, const batch::CellResult& cell,
               const obs::Observer& observer) {
  if (!cell.ok) {
    ++out.failed;
    return;
  }
  std::optional<faults::FaultPlan> plan;
  if (cell.fault != "none") {
    faults::FaultPlan p = faults::scenario(cell.fault);
    p.seed = batch::fault_seed_for(cell.seed, cell.cell.service_index,
                                   cell.cell.profile_index,
                                   cell.cell.fault_index);
    plan = std::move(p);
  }
  const Diagnosis diagnosis = diagnose(cell.result, observer, plan);
  out.overall.fold(diagnosis);
  rollup_for(out.by_service, cell.service).fold(diagnosis);
  rollup_for(out.by_profile, format("profile %d", cell.profile_id))
      .fold(diagnosis);
  rollup_for(out.by_fault, cell.fault).fold(diagnosis);
}

SweepDiagnosis diagnose_sweep(batch::SweepConfig config) {
  SweepDiagnosis out;

  // The observe callback fires post-join in grid order on one thread, so
  // the fold sequence — and therefore every rendered table — is independent
  // of the job count.
  config.observe = [&out](const batch::CellResult& cell,
                          const obs::Observer& observer) {
    fold_cell(out, cell, observer);
  };

  const batch::SweepResult result = batch::run_sweep(config);
  out.total_cells = static_cast<int>(result.cells.size());
  return out;
}

Report diag_report(const SweepDiagnosis& diagnosis) {
  const DiagRollup& o = diagnosis.overall;
  Report report;
  report.line(format(
      "sweep diagnosis: %d cells (%d failed), %.2fs problem time "
      "(%.2fs stalls), %.1f%% attributed (%.1f%% of stall time)",
      diagnosis.total_cells, diagnosis.failed, o.problem_s, o.stall_s,
      100 * o.attributed_fraction(), 100 * o.stall_attributed_fraction()));
  if (o.trace_dropped > 0) {
    report.line(format(
        "WARNING: trace rings dropped %llu events — attribution is partial",
        static_cast<unsigned long long>(o.trace_dropped)));
  }
  Table overall = diag_table();
  add_diag_row(overall, o);
  report.section("overall root causes", std::move(overall));
  for (const Dimension& dim : dimensions(diagnosis)) {
    report.section(dim.title, dimension_table(dim));
  }
  return report;
}

Table cause_taxonomy() {
  Table table({"cause", "label", "meaning"});
  for (Cause cause : all_causes()) {
    table.add_row(to_string(cause), short_label(cause), describe(cause));
  }
  return table;
}

std::string diag_text(const SweepDiagnosis& diagnosis) {
  return diag_report(diagnosis).text();
}

std::string diag_jsonl(const SweepDiagnosis& diagnosis) {
  const DiagRollup& o = diagnosis.overall;
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("scope").string("diag");
  w.key("cells").integer(diagnosis.total_cells);
  w.key("failed").integer(diagnosis.failed);
  w.key("problem_s").fixed(o.problem_s, 3);
  w.key("stall_s").fixed(o.stall_s, 3);
  w.key("attributed").fixed(o.attributed_fraction(), 4);
  w.key("stall_attributed").fixed(o.stall_attributed_fraction(), 4);
  w.end_object();
  out += '\n';
  auto emit = [&](const char* scope, const DiagRollup& rollup) {
    w.begin_object().key("scope").string(scope).key("key").string(rollup.key);
    w.key("cells").integer(rollup.cells);
    w.key("problem_s").fixed(rollup.problem_s, 3);
    w.key("stall_s").fixed(rollup.stall_s, 3);
    w.key("attributed").fixed(rollup.attributed_fraction(), 4);
    w.key("causes").begin_object();
    for (Cause cause : all_causes()) {
      w.key(to_string(cause))
          .fixed(rollup.blamed_s[static_cast<int>(cause)], 3);
    }
    w.end_object().end_object();
    out += '\n';
  };
  emit("diag.overall", o);
  for (const Dimension& dim : dimensions(diagnosis)) {
    for (const DiagRollup& rollup : *dim.rollups) emit(dim.scope, rollup);
  }
  return out;
}

std::string diag_html(const SweepDiagnosis& diagnosis) {
  return diag_report(diagnosis)
      .section("cause taxonomy", cause_taxonomy())
      .html("vodx root-cause report");
}

}  // namespace vodx::diag
