// chaos: the `vodx chaos --origin hardened` path — 4096 fuzz seeds of 120 s
// sessions, generated fault plans with origin faults, default watchdogs,
// minimizer on; the chaos text report.
#include <algorithm>
#include <map>
#include <unordered_map>

#include "batch/sweep.h"
#include "chaos/chaos.h"
#include "harness/common.h"
#include "harness/replay.h"
#include "services/service_catalog.h"
#include "support/digest.h"
#include "trace/cellular_profiles.h"

namespace vodxbench {
namespace {

using namespace vodx;

constexpr std::uint64_t kFuzzSeeds = 4096;

/// What the workload's own session produced, captured from the engine's
/// per-cell hook for the replay to match.
struct Captured {
  std::string fingerprint;
  Counters counters;
  std::string invariants;
  std::uint64_t trace_emitted = 0;
  std::uint64_t trace_dropped = 0;
};

class Chaos : public Workload {
 public:
  explicit Chaos(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    for (std::uint64_t i = 0; i < kFuzzSeeds; ++i) {
      config_.seeds.push_back(seed_ * kFuzzSeeds + i);
    }
    config_.origin = origin::Mode::kHardened;
    config_.gen.origin_faults = true;
    for (const services::ServiceSpec& spec : services::catalog()) {
      service_pool_.push_back(spec.name);
    }
    for (int id = 1; id <= trace::kProfileCount; ++id) {
      profile_pool_.push_back(id);
      trace::profile_mean(id);
    }
    // The key the per-cell hook finds its cell by (the content seed is a
    // pure function of the fuzz seed).
    for (std::size_t i = 0; i < config_.seeds.size(); ++i) {
      index_by_content_seed_[chaos::chaos_content_seed(config_.seeds[i])] = i;
    }
    cell_ms_.assign(kFuzzSeeds, 0);
    captured_.assign(kFuzzSeeds, Captured{});
  }

  PassResult pass(int jobs) override {
    const double start = now_s();
    const std::string text = run(jobs, /*capture=*/false);
    PassResult pass;
    pass.wall_s = now_s() - start;
    pass.sessions = config_.seeds.size();
    pass.failed = failed_;
    pass.digest = Digest().add(text).hex();
    pass.session_ms = cell_ms_;
    return pass;
  }

  void traced(TraceContext& ctx, RunResult& result) override;

 private:
  /// run_chaos + report text. Per-seed host time comes from the engine's
  /// per-cell hook, which runs on the worker right after a cell's session
  /// and invariant check: a seed's time is the gap since the same worker's
  /// previous hook (or the pass start).
  std::string run(int jobs, bool capture) {
    chaos::ChaosConfig config = config_;
    config.jobs = jobs;
    const double pass_start = now_s();
    const std::uint64_t pass_id = ++pass_id_;
    config.test_hook = [this, pass_start, pass_id, capture](
                           const core::SessionConfig& session,
                           const core::SessionResult& session_result,
                           const obs::Observer& observer,
                           chaos::InvariantReport& report) {
      thread_local std::uint64_t last_pass = 0;
      thread_local double last_stamp = 0;
      const double now = now_s();
      if (last_pass != pass_id) {
        last_pass = pass_id;
        last_stamp = pass_start;
      }
      const auto it = index_by_content_seed_.find(session.content_seed);
      if (it == index_by_content_seed_.end()) return;
      cell_ms_[it->second] = (now - last_stamp) * 1e3;
      last_stamp = now;
      if (!capture) return;
      Captured& c = captured_[it->second];
      c.fingerprint = session_fingerprint(session_result);
      c.counters = work_counters(observer.metrics.snapshot(
          session_result.session_end));
      c.invariants = report.summary();
      c.trace_emitted = observer.trace.emitted();
      c.trace_dropped = observer.trace.dropped();
    };
    last_report_ = chaos::run_chaos(config);
    failed_ = static_cast<std::uint64_t>(last_report_.violations +
                                         last_report_.watchdogs);
    return chaos::chaos_report_text(last_report_);
  }

  std::uint64_t seed_;
  chaos::ChaosConfig config_;
  std::vector<std::string> service_pool_;
  std::vector<int> profile_pool_;
  std::unordered_map<std::uint64_t, std::size_t> index_by_content_seed_;
  std::uint64_t pass_id_ = 0;
  std::uint64_t failed_ = 0;
  chaos::ChaosReport last_report_;
  std::vector<double> cell_ms_;     ///< per seed, written by its worker
  std::vector<Captured> captured_;  ///< per seed, written by its worker
};

void Chaos::traced(TraceContext& ctx, RunResult& result) {
  std::uint64_t failed = 0;
  const PassTimes times =
      traced_passes(ctx, "chaos", [&](int jobs, bool is_reference) {
        const std::string digest = Digest().add(run(jobs, is_reference)).hex();
        if (is_reference) failed = failed_;
        return digest;
      });
  const bool outputs_agree = times.outputs_agree;
  result.add("trace_overhead", times.profiled_s / times.untraced_s - 1,
             "fraction");
  add_zone_metrics(ctx.zones, result);
  result.add("render.chaos_text_ms",
             median_ms(5, [&] { chaos::chaos_report_text(last_report_); }),
             "ms");

  Counters counters;
  std::uint64_t trace_emitted = 0, trace_dropped = 0;
  for (const Captured& c : captured_) {
    for (const auto& [name, value] : c.counters) counters[name] += value;
    trace_emitted += c.trace_emitted;
    trace_dropped += c.trace_dropped;
  }
  add_counter_metrics(counters, result);
  result.add("obs.trace_emitted", static_cast<double>(trace_emitted), "count");
  result.add("obs.trace_dropped", static_cast<double>(trace_dropped), "count");

  // Replay every seed through the public pieces, serially, with spans.
  ctx.lane("chaos replay");
  ReplayTotals totals;
  for (std::size_t i = 0; i < config_.seeds.size(); ++i) {
    const std::uint64_t seed = config_.seeds[i];
    ReplayOptions options;
    options.trace_enabled = true;
    options.check_invariants = true;
    const Replayed replayed = replay_session(
        ctx.spans, static_cast<int>(i),
        [&] {
          // chaos::run_chaos's cell: pool draws, plan, session, watchdogs.
          const std::string& service =
              service_pool_[batch::derive_seed(seed, 0x5E41ULL) %
                            service_pool_.size()];
          const int profile =
              profile_pool_[batch::derive_seed(seed, 0x9120FULL) %
                            profile_pool_.size()];
          const faults::FaultPlan plan =
              chaos::generate_plan(seed, config_.gen);
          core::SessionConfig session = chaos::make_session(
              service, profile, config_.duration, seed, plan, config_.origin);
          session.wall_budget = config_.wall_budget;
          session.max_events_per_instant = config_.max_events_per_instant;
          session.sim_core = config_.sim_core;
          return session;
        },
        options);
    const Captured& c = captured_[i];
    const Counters replay_counters = work_counters(replayed.metrics);
    const bool match =
        session_fingerprint(replayed.result) == c.fingerprint &&
        replay_counters == c.counters &&
        replayed.invariants.summary() == c.invariants;
    totals.add(replayed, match);
  }
  add_replay_metrics(ctx.spans, totals, result);
  std::map<std::string, SpanStats> by_name;
  for (const SpanStats& s : ctx.spans.summarize()) by_name[s.name] = s;
  const double n = std::max(1, totals.sessions);
  result.add("chaos.cell_ms", by_name["session"].total_ns / 1e6 / n, "ms");
  result.add("chaos.check_ms", by_name["chaos.check"].total_ns / 1e6 / n,
             "ms");
  ctx.notes.push_back(
      "replay: " + std::to_string(totals.matched) + " of " +
      std::to_string(totals.sessions) + " sessions reproduce the workload" +
      (totals.probes_agree ? "" : "; finish probes DISAGREE"));

  result.attempted = config_.seeds.size();
  result.failed = outputs_agree ? failed : result.attempted;
  result.failed += static_cast<std::uint64_t>(totals.sessions - totals.matched);
  result.correct = outputs_agree && totals.matched == totals.sessions &&
                   totals.probes_agree;
}

}  // namespace

std::unique_ptr<Workload> make_chaos(std::uint64_t seed) {
  return std::make_unique<Chaos>(seed);
}

}  // namespace vodxbench
