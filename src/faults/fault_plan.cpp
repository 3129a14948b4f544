#include "faults/fault_plan.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace vodx::faults {

net::BandwidthTrace apply_blackouts(
    const net::BandwidthTrace& trace,
    const std::vector<BlackoutFault>& blackouts) {
  if (blackouts.empty()) return trace;
  const Seconds duration = trace.duration();

  // The output is piecewise constant and changes only at the trace's own
  // sample starts and at the blackout edges inside the trace: merge the two
  // sorted lists in one walk. A boundary t is dark when a blackout starting
  // at or before it ends after it, which the windows sorted by start and
  // the furthest end among those begun tell in the same walk.
  std::vector<Seconds> edges;
  std::vector<std::pair<Seconds, Seconds>> windows;
  for (const BlackoutFault& b : blackouts) {
    const Seconds end = b.start + b.duration;
    if (b.start >= 0 && b.start < duration) edges.push_back(b.start);
    if (end > 0 && end < duration) edges.push_back(end);
    if (b.start < end) windows.emplace_back(b.start, end);
  }
  std::sort(edges.begin(), edges.end());
  std::sort(windows.begin(), windows.end());

  const std::vector<net::BandwidthTrace::Sample>& in = trace.samples();
  std::vector<net::BandwidthTrace::Sample> samples;
  samples.reserve(in.size() + edges.size());
  // The trace starts at 0 and no edge lies below it, so the first boundary
  // is in[0]; after it, in[next_sample - 1] is the sample covering t.
  std::size_t next_sample = 0, next_edge = 0, begun = 0;
  Seconds reach = -std::numeric_limits<Seconds>::infinity();
  while (next_sample < in.size() || next_edge < edges.size()) {
    const bool from_trace =
        next_edge == edges.size() ||
        (next_sample < in.size() && in[next_sample].start <= edges[next_edge]);
    const Seconds t = from_trace ? in[next_sample++].start : edges[next_edge++];
    if (!samples.empty() && samples.back().start == t) continue;
    for (; begun < windows.size() && windows[begun].first <= t; ++begun) {
      reach = std::max(reach, windows[begun].second);
    }
    samples.push_back({t, reach > t ? 0 : in[next_sample - 1].bandwidth});
  }
  net::BandwidthTrace result =
      net::BandwidthTrace::from_samples(std::move(samples), duration);
  result.set_name(trace.name().empty() ? "blackout"
                                       : trace.name() + "+blackout");
  return result;
}

const std::vector<Scenario>& scenario_catalog() {
  static const std::vector<Scenario> catalog = [] {
    std::vector<Scenario> scenarios;

    scenarios.push_back({"none", "no injected faults (baseline)", {}});

    {
      Scenario s;
      s.name = "flaky-origin";
      s.description = "origin answers 503 with p=0.15 after startup";
      s.plan.name = s.name;
      ErrorFault fault;
      fault.match.start = 5;  // let manifest resolution through
      fault.status = 503;
      fault.probability = 0.15;
      s.plan.errors.push_back(fault);
      scenarios.push_back(std::move(s));
    }
    {
      Scenario s;
      s.name = "slow-origin";
      s.description = "every response delayed 0.3s + up to 0.4s jitter";
      s.plan.name = s.name;
      LatencyFault fault;
      fault.match.start = 5;
      fault.base = 0.3;
      fault.jitter = 0.4;
      s.plan.latency.push_back(fault);
      scenarios.push_back(std::move(s));
    }
    {
      Scenario s;
      s.name = "resets";
      s.description = "connection reset at 60% of the wire bytes, p=0.12";
      s.plan.name = s.name;
      ResetFault fault;
      fault.match.start = 5;
      fault.after_fraction = 0.6;
      fault.probability = 0.12;
      s.plan.resets.push_back(fault);
      scenarios.push_back(std::move(s));
    }
    {
      Scenario s;
      s.name = "blackout";
      s.description = "zero-bandwidth windows at 120s (20s) and 300s (15s)";
      s.plan.name = s.name;
      s.plan.blackouts.push_back({120, 20});
      s.plan.blackouts.push_back({300, 15});
      scenarios.push_back(std::move(s));
    }
    {
      Scenario s;
      s.name = "reject-window";
      s.description = "proxy rejects every request during [60s, 68s)";
      s.plan.name = s.name;
      RejectFault fault;
      fault.match.start = 60;
      fault.match.end = 68;
      fault.probability = 1;
      s.plan.rejects.push_back(fault);
      scenarios.push_back(std::move(s));
    }
    return scenarios;
  }();
  return catalog;
}

FaultPlan scenario(const std::string& name) {
  for (const Scenario& s : scenario_catalog()) {
    if (s.name == name) return s.plan;
  }
  throw ConfigError("unknown fault scenario \"" + name + "\"");
}

player::PlayerConfig hardened(player::PlayerConfig config, std::uint64_t seed) {
  config.name += "+hardened";
  config.fetch_timeout = 12;
  config.fetch_retries = std::max(config.fetch_retries, 8);
  config.retry_backoff = std::max(config.retry_backoff, 1.0);
  config.retry_jitter = 0.5;
  config.abandon_downswitch = true;
  config.resilience_seed = seed;
  config.manifest_retries = 3;
  config.tolerate_variant_loss = true;
  return config;
}

}  // namespace vodx::faults
