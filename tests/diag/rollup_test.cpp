// Sweep-level diag rollups: grid-order folding must make every rendered
// artefact byte-identical across job counts, and the rollup arithmetic
// must conserve blamed time.
#include <gtest/gtest.h>

#include "batch/report.h"
#include "common/strings.h"
#include "core/session_factory.h"
#include "diag/rollup.h"
#include "obs/observer.h"
#include "services/service_catalog.h"

namespace vodx::diag {
namespace {

batch::SweepConfig grid(int jobs) {
  batch::SweepConfig config;
  config.services = {services::service("H1"), services::service("H3"),
                     services::service("D1")};
  config.profiles = {2, 7};
  config.session_duration = 60;
  config.content_duration = 60;
  config.jobs = jobs;
  return config;
}

TEST(DiagRollup, ByteIdenticalAcrossJobCounts) {
  const SweepDiagnosis d1 = diagnose_sweep(grid(1));
  ASSERT_EQ(d1.failed, 0);
  ASSERT_EQ(d1.total_cells, 6);
  const std::string text1 = diag_text(d1);
  const std::string jsonl1 = diag_jsonl(d1);
  const std::string html1 = diag_html(d1);
  for (int jobs : {2, 8}) {
    const SweepDiagnosis dn = diagnose_sweep(grid(jobs));
    EXPECT_EQ(diag_text(dn), text1) << "diag text differs at jobs=" << jobs;
    EXPECT_EQ(diag_jsonl(dn), jsonl1) << "diag JSONL differs at jobs=" << jobs;
    EXPECT_EQ(diag_html(dn), html1) << "diag HTML differs at jobs=" << jobs;
  }
}

TEST(DiagRollup, DimensionsConserveBlamedTime) {
  const SweepDiagnosis d = diagnose_sweep(grid(2));
  ASSERT_EQ(d.failed, 0);
  for (const std::vector<DiagRollup>* dim :
       {&d.by_service, &d.by_profile, &d.by_fault}) {
    int cells = 0;
    double problem = 0;
    double blamed[kCauseCount] = {};
    for (const DiagRollup& rollup : *dim) {
      cells += rollup.cells;
      problem += rollup.problem_s;
      for (int c = 0; c < kCauseCount; ++c) blamed[c] += rollup.blamed_s[c];
    }
    EXPECT_EQ(cells, d.overall.cells);
    EXPECT_NEAR(problem, d.overall.problem_s, 1e-6);
    for (int c = 0; c < kCauseCount; ++c) {
      EXPECT_NEAR(blamed[c], d.overall.blamed_s[c], 1e-6);
    }
  }
  // Every cell's blame spans tile its problem intervals, so the per-cause
  // totals must add back up to the problem time.
  double total = 0;
  for (int c = 0; c < kCauseCount; ++c) total += d.overall.blamed_s[c];
  EXPECT_NEAR(total, d.overall.problem_s, 1e-6);
}

TEST(DiagRollup, ReportHtmlInsertsTheSectionBeforeTheClosingTags) {
  // `vodx report --diag --html`: one sweep pass feeds both the metrics
  // rollups and the diag fold, and the diag section joins the report page.
  batch::SweepConfig config = grid(2);
  config.collect_metrics = true;
  SweepDiagnosis d;
  config.observe = [&d](const batch::CellResult& cell,
                        const obs::Observer& observer) {
    fold_cell(d, cell, observer);
  };
  const batch::SweepResult result = batch::run_sweep(config);
  d.total_cells = static_cast<int>(result.cells.size());
  const batch::SweepMetrics metrics = batch::aggregate_metrics(result);
  Report combined = batch::sweep_report(metrics);
  combined.append(diag_report(d));

  // The diag blocks render as the body of their own page: everything
  // between the page head and the closing tags.
  const std::string title = "vodx sweep report";
  const std::string head = html_page_start(title);
  const std::string tail = "</body></html>\n";
  const std::string diag_page = diag_report(d).html(title);
  ASSERT_TRUE(starts_with(diag_page, head));
  ASSERT_TRUE(ends_with(diag_page, tail));
  const std::string section = diag_page.substr(
      head.size(), diag_page.size() - head.size() - tail.size());

  std::string spliced = batch::report_html(metrics);
  ASSERT_TRUE(ends_with(spliced, tail));
  spliced.insert(spliced.size() - tail.size(), section);
  EXPECT_EQ(combined.html(title), spliced);
}

std::size_t cwnd_samples(const obs::Observer& observer) {
  std::size_t n = 0;
  observer.trace.for_each([&n](const obs::Event& event) {
    if (std::string_view(event.name) == "tcp.cwnd_kb") ++n;
  });
  return n;
}

TEST(DiagRollup, EvidenceMaskLeavesTheDiagnosisUnchanged) {
  // A session observed with obs::kEvidenceMask diagnoses the same as one
  // observed with every event, and only the latter records the cwnd series.
  core::SessionFactory factory;
  factory.session_duration = 60;
  factory.content_duration = 60;
  for (const char* service : {"H1", "H3", "D1"}) {
    for (int profile : {2, 7}) {
      SCOPED_TRACE(::testing::Message() << service << " profile " << profile);
      core::SessionConfig config = factory.config(service, profile, 1, 1);
      obs::Observer full;
      config.observer = &full;
      const core::SessionResult full_run = core::run_session(config);
      obs::Observer evidence;
      evidence.trace.set_category_mask(obs::kEvidenceMask);
      config.observer = &evidence;
      const core::SessionResult evidence_run = core::run_session(config);
      EXPECT_GT(cwnd_samples(full), 0u);
      EXPECT_EQ(cwnd_samples(evidence), 0u);
      EXPECT_EQ(diagnosis_text(diagnose(full_run, full)),
                diagnosis_text(diagnose(evidence_run, evidence)));
    }
  }
}

TEST(DiagRollup, SweepCellsRecordTheEvidenceMask) {
  batch::SweepConfig config = grid(2);
  std::size_t cells = 0;
  config.observe = [&cells](const batch::CellResult&,
                            const obs::Observer& observer) {
    EXPECT_EQ(cwnd_samples(observer), 0u);
    ++cells;
  };
  batch::run_sweep(config);
  EXPECT_EQ(cells, 6u);
}

TEST(DiagRollup, FoldAccumulatesFractions) {
  DiagRollup rollup;
  rollup.key = "x";
  Diagnosis a;
  IntervalDiagnosis stall;
  stall.startup = false;
  stall.start = 10;
  stall.end = 14;
  stall.spans.push_back({10, 14, Cause::kLinkDeficit, 0.8, ""});
  a.intervals.push_back(stall);
  a.blamed_s[static_cast<int>(Cause::kLinkDeficit)] = 4;
  a.stall_blamed_s[static_cast<int>(Cause::kLinkDeficit)] = 4;
  a.confidence[static_cast<int>(Cause::kLinkDeficit)] = 0.8;
  rollup.fold(a);
  EXPECT_EQ(rollup.cells, 1);
  EXPECT_DOUBLE_EQ(rollup.problem_s, 4);
  EXPECT_DOUBLE_EQ(rollup.stall_s, 4);
  EXPECT_DOUBLE_EQ(rollup.attributed_fraction(), 1);
  EXPECT_DOUBLE_EQ(rollup.stall_attributed_fraction(), 1);
  EXPECT_NEAR(rollup.mean_confidence(), 0.8, 1e-9);

  // An all-unknown diagnosis drags the fraction down proportionally.
  Diagnosis b;
  IntervalDiagnosis unknown = stall;
  unknown.spans[0].cause = Cause::kUnknown;
  b.intervals.push_back(unknown);
  b.blamed_s[static_cast<int>(Cause::kUnknown)] = 4;
  b.stall_blamed_s[static_cast<int>(Cause::kUnknown)] = 4;
  rollup.fold(b);
  EXPECT_DOUBLE_EQ(rollup.attributed_fraction(), 0.5);
}

}  // namespace
}  // namespace vodx::diag
