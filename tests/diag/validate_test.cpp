// Precision/recall harness: catalog coverage, score sanity, determinism,
// and the fault-free baseline staying blame-free.
#include <gtest/gtest.h>

#include "diag/validate.h"
#include "faults/fault_plan.h"

namespace vodx::diag {
namespace {

/// Short sessions keep the whole catalog quick to score.
constexpr Seconds kQuick = 120;

TEST(Validate, CoversEveryCatalogScenario) {
  const ValidationReport report = validate(kQuick);
  ASSERT_EQ(report.scores.size(), faults::scenario_catalog().size());
  for (std::size_t i = 0; i < report.scores.size(); ++i) {
    EXPECT_EQ(report.scores[i].scenario,
              faults::scenario_catalog()[i].name);
    EXPECT_EQ(report.scores[i].cells, 3);
    EXPECT_GE(report.scores[i].precision(), 0);
    EXPECT_LE(report.scores[i].precision(), 1);
    EXPECT_GE(report.scores[i].recall(), 0);
    EXPECT_LE(report.scores[i].recall(), 1);
  }
}

TEST(Validate, FaultFreeBaselineHasNoFaultBlame) {
  const ValidationReport report = validate(kQuick);
  const ScenarioScore& none = report.scores.front();
  ASSERT_EQ(none.scenario, "none");
  EXPECT_DOUBLE_EQ(none.blamed_s, 0);
  EXPECT_DOUBLE_EQ(none.truth_s, 0);
  // Empty denominators score 1, not NaN — the gate must stay meaningful.
  EXPECT_DOUBLE_EQ(none.precision(), 1);
  EXPECT_DOUBLE_EQ(none.recall(), 1);
}

TEST(Validate, MeetsTheSmokeThreshold) {
  const ValidationReport report = validate(kQuick);
  EXPECT_GE(report.min_precision(), 0.9);
  EXPECT_GE(report.min_recall(), 0.9);
  EXPECT_TRUE(report.pass(0.9));
  EXPECT_FALSE(report.pass(1.01));
}

TEST(Validate, TextIsDeterministic) {
  const ValidationReport a = validate(kQuick);
  const ValidationReport b = validate(kQuick);
  EXPECT_EQ(validation_text(a, 0.9), validation_text(b, 0.9));
  EXPECT_NE(validation_text(a, 0.9).find("PASS"), std::string::npos);
}

}  // namespace
}  // namespace vodx::diag
