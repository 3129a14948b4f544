#include "diag/rollup.h"

#include "common/strings.h"
#include "common/table.h"
#include "faults/fault_plan.h"
#include "obs/export.h"

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

std::vector<std::string> diag_header() {
  std::vector<std::string> header = {"key", "cells", "problem_s", "stall_s",
                                     "attributed", "conf"};
  for (Cause cause : all_causes()) {
    header.push_back(short_label(cause));
  }
  return header;
}

std::vector<std::string> diag_row(const DiagRollup& rollup) {
  std::vector<std::string> row = {
      rollup.key,
      std::to_string(rollup.cells),
      format("%.2f", rollup.problem_s),
      format("%.2f", rollup.stall_s),
      format("%.1f%%", 100 * rollup.attributed_fraction()),
      rollup.mean_confidence() > 0 ? format("%.2f", rollup.mean_confidence())
                                   : "-"};
  for (Cause cause : all_causes()) {
    const double s = rollup.blamed_s[static_cast<int>(cause)];
    row.push_back(s > 0 ? format("%.2f", s) : "-");
  }
  return row;
}

Table dimension_table(const Dimension& dim) {
  Table table(diag_header());
  for (const DiagRollup& rollup : *dim.rollups) table.add_row(diag_row(rollup));
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
               const obs::Observer& observer, const DiagOptions& options) {
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
  const Diagnosis diagnosis = diagnose(cell.result, observer, plan, options);
  out.overall.fold(diagnosis);
  rollup_for(out.by_service, cell.service).fold(diagnosis);
  rollup_for(out.by_profile, format("profile %d", cell.profile_id))
      .fold(diagnosis);
  rollup_for(out.by_fault, cell.fault).fold(diagnosis);
}

SweepDiagnosis diagnose_sweep(batch::SweepConfig config,
                              const DiagOptions& options) {
  SweepDiagnosis out;

  // The observe callback fires post-join in grid order on one thread, so
  // the fold sequence — and therefore every rendered table — is independent
  // of the job count.
  config.observe = [&out, &options](const batch::CellResult& cell,
                                    const obs::Observer& observer) {
    fold_cell(out, cell, observer, options);
  };

  const batch::SweepResult result = batch::run_sweep(config);
  out.total_cells = static_cast<int>(result.cells.size());
  return out;
}

std::string diag_text(const SweepDiagnosis& diagnosis) {
  const DiagRollup& o = diagnosis.overall;
  std::string out = format(
      "sweep diagnosis: %d cells (%d failed), %.2fs problem time "
      "(%.2fs stalls), %.1f%% attributed (%.1f%% of stall time)\n",
      diagnosis.total_cells, diagnosis.failed, o.problem_s, o.stall_s,
      100 * o.attributed_fraction(), 100 * o.stall_attributed_fraction());
  if (o.trace_dropped > 0) {
    out += format(
        "WARNING: trace rings dropped %llu events — attribution is partial\n",
        static_cast<unsigned long long>(o.trace_dropped));
  }
  out += "\n== overall root causes ==\n";
  Table overall(diag_header());
  overall.add_row(diag_row(o));
  out += overall.render();
  for (const Dimension& dim : dimensions(diagnosis)) {
    out += format("\n== %s ==\n", dim.title);
    out += dimension_table(dim).render();
  }
  return out;
}

std::string diag_jsonl(const SweepDiagnosis& diagnosis) {
  std::string out = format(
      "{\"scope\":\"diag\",\"cells\":%d,\"failed\":%d,"
      "\"problem_s\":%.3f,\"stall_s\":%.3f,\"attributed\":%.4f,"
      "\"stall_attributed\":%.4f}\n",
      diagnosis.total_cells, diagnosis.failed, diagnosis.overall.problem_s,
      diagnosis.overall.stall_s, diagnosis.overall.attributed_fraction(),
      diagnosis.overall.stall_attributed_fraction());
  auto emit = [&out](const char* scope, const DiagRollup& rollup) {
    out += format(
        "{\"scope\":\"%s\",\"key\":\"%s\",\"cells\":%d,"
        "\"problem_s\":%.3f,\"stall_s\":%.3f,\"attributed\":%.4f,"
        "\"causes\":{",
        scope, obs::json_escape(rollup.key).c_str(), rollup.cells,
        rollup.problem_s, rollup.stall_s, rollup.attributed_fraction());
    bool first = true;
    for (Cause cause : all_causes()) {
      if (!first) out += ",";
      first = false;
      out += format("\"%s\":%.3f", to_string(cause),
                    rollup.blamed_s[static_cast<int>(cause)]);
    }
    out += "}}\n";
  };
  emit("diag.overall", diagnosis.overall);
  for (const Dimension& dim : dimensions(diagnosis)) {
    for (const DiagRollup& rollup : *dim.rollups) {
      emit(dim.scope, rollup);
    }
  }
  return out;
}

std::string diag_html_section(const SweepDiagnosis& diagnosis) {
  const DiagRollup& o = diagnosis.overall;
  std::string out = "<h2>root-cause attribution</h2>\n";
  out += format(
      "<p>%d cells (%d failed): %.2fs problem time (%.2fs stalls), "
      "%.1f%% attributed to a known cause.</p>\n",
      diagnosis.total_cells, diagnosis.failed, o.problem_s, o.stall_s,
      100 * o.attributed_fraction());
  if (o.trace_dropped > 0) {
    out += format(
        "<p>WARNING: trace rings dropped %llu events — attribution is "
        "partial.</p>\n",
        static_cast<unsigned long long>(o.trace_dropped));
  }
  Table overall(diag_header());
  overall.add_row(diag_row(o));
  out += overall.html();
  for (const Dimension& dim : dimensions(diagnosis)) {
    out += format("<h3>%s</h3>\n", dim.title);
    out += dimension_table(dim).html();
  }
  out += "<h3>cause taxonomy</h3>\n<ul>\n";
  for (Cause cause : all_causes()) {
    out += format("<li><b>%s</b> (%s): %s</li>\n",
                  html_escape(to_string(cause)).c_str(),
                  html_escape(short_label(cause)).c_str(),
                  html_escape(describe(cause)).c_str());
  }
  out += "</ul>\n";
  return out;
}

std::string diag_html(const SweepDiagnosis& diagnosis) {
  std::string out = html_page_start("vodx root-cause report");
  out += diag_html_section(diagnosis);
  out += "</body></html>\n";
  return out;
}

}  // namespace vodx::diag
