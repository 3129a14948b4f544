// End-to-end aggregation determinism: a 12-service x 3-profile sweep with
// per-cell metric collection must produce a byte-identical merged
// MetricsSnapshot — and byte-identical rendered reports — at --jobs 1, 2
// and 8. This is the acceptance gate for the mergeable-snapshot design.
#include <gtest/gtest.h>

#include "batch/report.h"
#include "batch/sweep.h"
#include "obs/export.h"
#include "services/service_catalog.h"
#include "testing/metrics_json.h"

namespace vodx::batch {
namespace {

SweepConfig grid(int jobs) {
  SweepConfig config;
  config.services = services::catalog();
  config.profiles = {3, 7, 11};
  config.session_duration = 60;
  config.content_duration = 60;
  config.collect_metrics = true;
  config.jobs = jobs;
  return config;
}

TEST(MetricsRollup, AggregateIsByteIdenticalAcrossJobCounts) {
  const SweepResult r1 = run_sweep(grid(1));
  ASSERT_EQ(r1.failed, 0);
  ASSERT_EQ(r1.cells.size(), 36u);
  const SweepMetrics m1 = aggregate_metrics(r1);
  const std::string merged1 = testing::metrics_json(m1.overall.metrics);
  const std::string text1 = report_text(m1);
  const std::string jsonl1 = report_jsonl(r1, m1);

  for (int jobs : {2, 8}) {
    const SweepResult rn = run_sweep(grid(jobs));
    ASSERT_EQ(rn.failed, 0);
    const SweepMetrics mn = aggregate_metrics(rn);
    EXPECT_EQ(testing::metrics_json(mn.overall.metrics), merged1)
        << "merged snapshot differs at jobs=" << jobs;
    EXPECT_EQ(report_text(mn), text1) << "text report differs at jobs=" << jobs;
    EXPECT_EQ(report_jsonl(rn, mn), jsonl1)
        << "report JSONL differs at jobs=" << jobs;
  }
}

TEST(MetricsRollup, EveryCellCarriesASnapshot) {
  const SweepResult result = run_sweep(grid(4));
  for (const CellResult& cell : result.cells) {
    ASSERT_TRUE(cell.ok) << cell.coordinates();
    EXPECT_TRUE(cell.has_metrics) << cell.coordinates();
    EXPECT_NE(cell.metrics.find("session.total_bytes"), nullptr)
        << cell.coordinates();
  }
}

TEST(MetricsRollup, RollupKeysFollowGridOrderAndCountCells) {
  const SweepResult result = run_sweep(grid(4));
  const SweepMetrics metrics = aggregate_metrics(result);

  EXPECT_EQ(metrics.total_cells, 36);
  EXPECT_EQ(metrics.overall.cells, 36);

  const std::vector<services::ServiceSpec> catalog = services::catalog();
  ASSERT_EQ(metrics.by_service.size(), catalog.size());
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_EQ(metrics.by_service[i].key, catalog[i].name);
    EXPECT_EQ(metrics.by_service[i].cells, 3);  // one per profile
  }

  ASSERT_EQ(metrics.by_profile.size(), 3u);
  EXPECT_EQ(metrics.by_profile[0].key, "profile 3");
  EXPECT_EQ(metrics.by_profile[1].key, "profile 7");
  EXPECT_EQ(metrics.by_profile[2].key, "profile 11");
  for (const Rollup& rollup : metrics.by_profile) {
    EXPECT_EQ(rollup.cells, 12);  // one per service
  }

  ASSERT_EQ(metrics.by_fault.size(), 1u);
  EXPECT_EQ(metrics.by_fault[0].key, "none");
  EXPECT_EQ(metrics.by_fault[0].cells, 36);
}

TEST(MetricsRollup, OverallCountersEqualTheSumOfPerCellCounters) {
  const SweepResult result = run_sweep(grid(4));
  const SweepMetrics metrics = aggregate_metrics(result);
  std::int64_t by_hand = 0;
  for (const CellResult& cell : result.cells) {
    by_hand += cell.metrics.find("session.total_bytes")->count;
  }
  EXPECT_EQ(metrics.overall.metrics.find("session.total_bytes")->count,
            by_hand);
}

TEST(MetricsRollup, CellsWithoutMetricsAreSkippedButCounted) {
  SweepConfig config = grid(1);
  config.profiles = {7, 99};  // 99 is out of range: the cell fails
  const SweepResult result = run_sweep(config);
  EXPECT_EQ(result.failed, 12);
  const SweepMetrics metrics = aggregate_metrics(result);
  EXPECT_EQ(metrics.total_cells, 24);
  EXPECT_EQ(metrics.failed, 12);
  EXPECT_EQ(metrics.overall.cells, 12);
  // The failed profile never contributes a rollup key.
  ASSERT_EQ(metrics.by_profile.size(), 1u);
  EXPECT_EQ(metrics.by_profile[0].key, "profile 7");
}

}  // namespace
}  // namespace vodx::batch
