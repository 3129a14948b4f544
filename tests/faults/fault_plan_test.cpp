// vodx::faults unit coverage: the scenario catalog, blackout trace carving,
// the hardened player profile, and the injector's seed-derived decisions.
#include "faults/fault_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "faults/fault_injector.h"
#include "http/message.h"

namespace vodx::faults {
namespace {

TEST(ScenarioCatalog, NoneBaselinePlusAtLeastFourPathologies) {
  const std::vector<Scenario>& catalog = scenario_catalog();
  ASSERT_FALSE(catalog.empty());
  EXPECT_EQ(catalog.front().name, "none");
  EXPECT_TRUE(catalog.front().plan.empty());
  int pathologies = 0;
  for (const Scenario& s : catalog) {
    EXPECT_FALSE(s.description.empty()) << s.name;
    if (!s.plan.empty()) ++pathologies;
  }
  EXPECT_GE(pathologies, 4);
}

TEST(ScenarioCatalog, LookupByNameAndUnknownThrows) {
  EXPECT_FALSE(scenario("resets").resets.empty());
  EXPECT_FALSE(scenario("blackout").blackouts.empty());
  EXPECT_TRUE(scenario("none").empty());
  EXPECT_THROW(scenario("no-such-scenario"), ConfigError);
}

TEST(ApplyBlackouts, CarvesZeroBandwidthWindows) {
  const net::BandwidthTrace trace = net::BandwidthTrace::constant(5e6, 600);
  const net::BandwidthTrace cut =
      apply_blackouts(trace, {{120, 20}, {300, 15}});
  EXPECT_DOUBLE_EQ(cut.duration(), trace.duration());
  EXPECT_DOUBLE_EQ(cut.at(119), 5e6);
  EXPECT_DOUBLE_EQ(cut.at(121), 0);
  EXPECT_DOUBLE_EQ(cut.at(139.5), 0);
  EXPECT_DOUBLE_EQ(cut.at(141), 5e6);
  EXPECT_DOUBLE_EQ(cut.at(310), 0);
  EXPECT_DOUBLE_EQ(cut.at(316), 5e6);
}

/// apply_blackouts as it was written before the one-walk merge: every cut
/// valued through BandwidthTrace::at, every blackout scanned per cut.
net::BandwidthTrace reference_blackouts(
    const net::BandwidthTrace& trace,
    const std::vector<BlackoutFault>& blackouts) {
  if (blackouts.empty()) return trace;
  const Seconds duration = trace.duration();
  const auto blacked_out = [&](Seconds t) {
    for (const BlackoutFault& b : blackouts) {
      if (t >= b.start && t < b.start + b.duration) return true;
    }
    return false;
  };
  std::vector<Seconds> cuts;
  for (const auto& sample : trace.samples()) cuts.push_back(sample.start);
  for (const BlackoutFault& b : blackouts) {
    if (b.start >= 0 && b.start < duration) cuts.push_back(b.start);
    const Seconds end = b.start + b.duration;
    if (end > 0 && end < duration) cuts.push_back(end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  std::vector<net::BandwidthTrace::Sample> samples;
  for (Seconds t : cuts) {
    samples.push_back({t, blacked_out(t) ? 0 : trace.at(t)});
  }
  net::BandwidthTrace result =
      net::BandwidthTrace::from_samples(std::move(samples), duration);
  result.set_name(trace.name().empty() ? "blackout"
                                       : trace.name() + "+blackout");
  return result;
}

void expect_same_trace(const net::BandwidthTrace& a,
                       const net::BandwidthTrace& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.duration(), b.duration());
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].start, b.samples()[i].start) << i;
    EXPECT_EQ(a.samples()[i].bandwidth, b.samples()[i].bandwidth) << i;
  }
}

TEST(ApplyBlackouts, OneWalkEqualsPerCutLookups) {
  Rng rng(20261020);
  const double inf = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 400; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // A trace of whole- and fractional-second steps, some repeating a value.
    const Seconds duration = static_cast<double>(rng.uniform_int(1, 600));
    std::vector<net::BandwidthTrace::Sample> steps{{0, 1e6}};
    while (steps.back().start < duration - 1) {
      const Seconds start =
          steps.back().start + (rng.uniform_int(0, 3) == 0
                                    ? rng.uniform(0.01, 2.0)
                                    : static_cast<double>(rng.uniform_int(1, 9)));
      if (start >= duration) break;
      steps.push_back({start, rng.uniform_int(0, 4) == 0
                                  ? steps.back().bandwidth
                                  : rng.uniform(0, 20e6)});
    }
    net::BandwidthTrace trace =
        net::BandwidthTrace::from_samples(steps, duration);
    if (round % 2 == 0) trace.set_name("Profile " + std::to_string(round));

    std::vector<BlackoutFault> blackouts;
    const int count = static_cast<int>(rng.uniform_int(0, 6));
    for (int i = 0; i < count; ++i) {
      BlackoutFault b;
      switch (rng.uniform_int(0, 6)) {
        case 0:  // on a sample start
          b.start = steps[static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(steps.size()) - 1))]
                        .start;
          b.duration = rng.uniform(0.5, 30);
          break;
        case 1:  // touching the previous one
          b.start = blackouts.empty()
                        ? 0
                        : blackouts.back().start + blackouts.back().duration;
          b.duration = rng.uniform(0.5, 30);
          break;
        case 2:  // overlapping the previous one
          b.start = blackouts.empty() ? duration / 2
                                      : blackouts.back().start + 0.5;
          b.duration = rng.uniform(0.5, 60);
          break;
        case 3:  // out of range on either side, or straddling an end
          b.start = rng.uniform_int(0, 1) ? rng.uniform(-50, 5)
                                          : rng.uniform(duration - 5,
                                                        duration + 50);
          b.duration = rng.uniform(0, 60);
          break;
        case 4:  // zero or negative length
          b.start = rng.uniform(0, duration);
          b.duration = rng.uniform_int(0, 1) ? 0 : -rng.uniform(0, 10);
          break;
        case 5:  // unbounded
          b.start = rng.uniform(0, duration);
          b.duration = inf;
          break;
        default:
          b.start = static_cast<double>(rng.uniform_int(0, 600));
          b.duration = static_cast<double>(rng.uniform_int(1, 40));
      }
      blackouts.push_back(b);
    }
    expect_same_trace(apply_blackouts(trace, blackouts),
                      reference_blackouts(trace, blackouts));
  }
}

TEST(ApplyBlackouts, FixedEdgeCases) {
  const net::BandwidthTrace trace =
      net::BandwidthTrace::from_samples({{0, 1e6}, {10, 2e6}, {20, 3e6}}, 30);
  const std::vector<std::vector<BlackoutFault>> cases = {
      {{10, 10}},                    // exactly one sample
      {{5, 5}, {10, 5}},             // touching
      {{5, 10}, {8, 20}},            // overlapping past the end
      {{-10, 15}, {25, 100}},        // straddling both ends
      {{40, 5}, {-20, 5}},           // wholly outside
      {{12, 0}, {15, -3}},           // zero and negative length
      {{0, 30}},                     // the whole trace
      {{3, 4}, {3, 4}, {3, 2}},      // repeated
  };
  for (const std::vector<BlackoutFault>& blackouts : cases) {
    expect_same_trace(apply_blackouts(trace, blackouts),
                      reference_blackouts(trace, blackouts));
  }
}

TEST(HardenedConfig, EnablesEveryResilienceKnob) {
  player::PlayerConfig base;
  player::PlayerConfig h = hardened(base, 0xABCDEF);
  EXPECT_GT(h.fetch_timeout, 0);
  EXPECT_GT(h.fetch_retries, base.fetch_retries);
  EXPECT_GT(h.retry_jitter, 0);
  EXPECT_TRUE(h.abandon_downswitch);
  EXPECT_EQ(h.resilience_seed, 0xABCDEFu);
  EXPECT_GT(h.manifest_retries, 0);
  EXPECT_TRUE(h.tolerate_variant_loss);
}

http::Request seg_request(int i) {
  return {http::Method::kGet, "/video/0/seg" + std::to_string(i) + ".ts", {}};
}

/// Runs `n` requests through the injector and fingerprints every decision.
std::string decisions(FaultInjector& injector, int n, Seconds now = 100) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    const http::Request request = seg_request(i);
    std::optional<http::Response> injected =
        injector.on_request(request, now);
    http::Response response =
        injected ? *injected : http::make_media("video/mp2t", 40000);
    injector.on_response(request, response, now);
    out += injected ? 'E' : '.';
    out += response.reset_after >= 0 ? 'R' : '.';
    out += response.added_latency > 0 ? 'L' : '.';
  }
  return out;
}

FaultPlan mixed_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.name = "mixed";
  plan.seed = seed;
  plan.errors.push_back({{}, 503, 0.2});
  plan.resets.push_back({{}, 0.5, 0.2});
  plan.latency.push_back({{}, 0.3, 0.2, 0.4});
  return plan;
}

TEST(FaultInjector, SameSeedSameSchedule) {
  FaultInjector a(mixed_plan(17));
  FaultInjector b(mixed_plan(17));
  const std::string da = decisions(a, 200);
  EXPECT_EQ(da, decisions(b, 200));
  EXPECT_EQ(a.stats().errors, b.stats().errors);
  EXPECT_EQ(a.stats().resets, b.stats().resets);
  EXPECT_EQ(a.stats().delayed, b.stats().delayed);
  // ~20% rates actually fire over 200 draws.
  EXPECT_GT(a.stats().errors, 10);
  EXPECT_GT(a.stats().resets, 10);
  EXPECT_GT(a.stats().delayed, 10);
}

TEST(FaultInjector, DifferentSeedDifferentSchedule) {
  FaultInjector a(mixed_plan(17));
  FaultInjector b(mixed_plan(18));
  EXPECT_NE(decisions(a, 200), decisions(b, 200));
}

TEST(FaultInjector, EveryNthRejectCountsOnlyMatches) {
  FaultPlan plan;
  plan.rejects.push_back({{/*url_contains=*/"seg"}, /*every_nth=*/3});
  FaultInjector injector(plan);
  int rejected = 0;
  for (int i = 0; i < 9; ++i) {
    // Non-matching traffic interleaved: it must not advance the counter.
    http::Request manifest{http::Method::kGet, "/master.m3u8", {}};
    EXPECT_FALSE(injector.on_request(manifest, 0).has_value());
    http::Response pass = http::make_ok("application/vnd.apple.mpegurl", "#");
    injector.on_response(manifest, pass, 0);

    const http::Request request = seg_request(i);
    std::optional<http::Response> injected = injector.on_request(request, 0);
    if (injected) {
      ++rejected;
      EXPECT_EQ(injected->status, 403);
    }
    http::Response response =
        injected ? *injected : http::make_media("video/mp2t", 1000);
    injector.on_response(request, response, 0);
  }
  EXPECT_EQ(rejected, 3);  // every 3rd of 9 matching requests
  EXPECT_EQ(injector.stats().rejected, 3);
}

TEST(FaultInjector, DeterministicLatencyAndResetMagnitudes) {
  FaultPlan plan;
  plan.latency.push_back({{}, /*base=*/0.2, /*jitter=*/0, /*probability=*/1});
  plan.resets.push_back({{}, /*after_fraction=*/0.5, /*probability=*/1});
  FaultInjector injector(plan);
  const http::Request request = seg_request(0);
  http::Response response = http::make_media("video/mp2t", 40000);
  const Bytes wire = response.wire_size();
  injector.on_response(request, response, 0);
  EXPECT_DOUBLE_EQ(response.added_latency, 0.2);
  EXPECT_EQ(response.reset_after, wire / 2);

  // Error responses move no media bytes: latency still applies, resets don't.
  http::Response error = http::make_error(503, "x");
  injector.on_response(request, error, 0);
  EXPECT_DOUBLE_EQ(error.added_latency, 0.2);
  EXPECT_EQ(error.reset_after, -1);
}

TEST(FaultInjector, TimeWindowGatesFaults) {
  FaultPlan plan;
  ErrorFault fault;
  fault.match.start = 10;
  fault.match.end = 20;
  fault.probability = 1;
  plan.errors.push_back(fault);
  FaultInjector injector(plan);
  EXPECT_FALSE(injector.on_request(seg_request(0), 5).has_value());
  EXPECT_TRUE(injector.on_request(seg_request(0), 15).has_value());
  EXPECT_FALSE(injector.on_request(seg_request(0), 25).has_value());
  EXPECT_EQ(injector.stats().errors, 1);
}

}  // namespace
}  // namespace vodx::faults
