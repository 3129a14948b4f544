// Seeded fault-plan generation: purity, seed sensitivity, bound respect.
#include "chaos/plan_gen.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "chaos/minimize.h"
#include "chaos/repro.h"

namespace vodx::chaos {
namespace {

/// Canonical byte representation of a plan (repro JSON with the name
/// blanked, so two plans compare by content, not by their "fuzz-<seed>"
/// label).
std::string fingerprint(faults::FaultPlan plan) {
  plan.name = "x";
  ReproArtifact artifact;
  artifact.plan = std::move(plan);
  return to_json(artifact);
}

TEST(PlanGen, SameSeedSamePlanByteForByte) {
  for (std::uint64_t seed : {0ull, 1ull, 17ull, 0xDEADBEEFull}) {
    EXPECT_EQ(fingerprint(generate_plan(seed)), fingerprint(generate_plan(seed)))
        << "seed " << seed;
  }
}

TEST(PlanGen, DifferentSeedsProduceDifferentPlans) {
  std::set<std::string> distinct;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    distinct.insert(fingerprint(generate_plan(seed)));
  }
  // Collisions are possible in principle but 16 seeds collapsing to fewer
  // than 12 distinct plans would mean the stream barely depends on the seed.
  EXPECT_GE(distinct.size(), 12u);
}

TEST(PlanGen, FaultCountWithinDefaultBounds) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const faults::FaultPlan plan = generate_plan(seed);
    const std::size_t count = fault_count(plan);
    EXPECT_GE(count, static_cast<std::size_t>(kMinFaults));
    EXPECT_LE(count, static_cast<std::size_t>(kMaxFaults));
    EXPECT_EQ(plan.seed, seed);
    EXPECT_EQ(plan.name, "fuzz-" + std::to_string(seed));
  }
}

TEST(PlanGen, RespectsCustomBounds) {
  GenOptions options;
  options.horizon = 60;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const faults::FaultPlan plan = generate_plan(seed, options);
    const auto check_window = [&](const faults::Match& match) {
      EXPECT_GE(match.start, 0.0);
      if (match.end >= 0) {
        EXPECT_LE(match.end, options.horizon + 1e-9);
        EXPECT_GT(match.end, match.start);
      }
    };
    for (const faults::LatencyFault& f : plan.latency) {
      check_window(f.match);
      EXPECT_GT(f.base, 0.0);
      EXPECT_LE(f.base + f.jitter, kMaxLatency + 1e-9);
      EXPECT_GE(f.probability, kMinProbability - 1e-9);
      EXPECT_LE(f.probability, kMaxProbability + 1e-9);
    }
    for (const faults::ErrorFault& f : plan.errors) {
      check_window(f.match);
      EXPECT_TRUE(f.status == 503 || f.status == 500);
      EXPECT_GE(f.probability, kMinProbability - 1e-9);
    }
    for (const faults::ResetFault& f : plan.resets) {
      check_window(f.match);
      EXPECT_GE(f.after_fraction, 0.0);
      EXPECT_LE(f.after_fraction, 1.0);
    }
    for (const faults::RejectFault& f : plan.rejects) {
      check_window(f.match);
      EXPECT_TRUE(f.every_nth >= 2 || f.probability > 0)
          << "a reject fault must actually reject something";
    }
    for (const faults::BlackoutFault& f : plan.blackouts) {
      EXPECT_GE(f.start, 0.0);
      EXPECT_LE(f.start, options.horizon * 0.9 + 1e-9);
      EXPECT_GE(f.duration, 0.5 - 1e-9);
      EXPECT_LE(f.duration, kMaxBlackout + 1e-9);
    }
  }
}

TEST(PlanGen, SummaryNamesEachPopulatedKind) {
  faults::FaultPlan plan;
  EXPECT_EQ(plan_summary(plan), "empty");
  plan.latency.push_back({});
  plan.resets.push_back({});
  plan.resets.push_back({});
  EXPECT_EQ(plan_summary(plan), "1 latency, 2 reset");
  plan.errors.push_back({});
  plan.rejects.push_back({});
  plan.blackouts.push_back({});
  EXPECT_EQ(plan_summary(plan), "1 latency, 1 error, 2 reset, 1 reject, 1 blackout");
}

}  // namespace
}  // namespace vodx::chaos
