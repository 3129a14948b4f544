// pop: the `vodx pop --shared-content --origin hardened --diag
// --timeline-out` path — 4 towers on profile 14 (one per core on 4 cores),
// Poisson arrivals at 12/min, 120 s watch, 2400 s horizon; text report and
// timeline CSV. Departed sessions stay registered for a tower's life, so
// the long horizon is what makes the simulator loop dominate.
#include <algorithm>
#include <map>
#include <tuple>

#include "batch/sweep.h"
#include "core/session_factory.h"
#include "harness/common.h"
#include "harness/replay.h"
#include "net/link.h"
#include "pop/pop_timeline.h"
#include "pop/population.h"
#include "services/content_factory.h"
#include "services/service_catalog.h"
#include "support/digest.h"
#include "trace/cellular_profiles.h"

namespace vodxbench {
namespace {

using namespace vodx;

constexpr int kTowers = 4;
constexpr int kProfile = 14;
constexpr Seconds kHorizon = 2400;

struct Outputs {
  pop::PopulationReport report;
  std::string text, timeline_csv;

  std::string digest() const {
    return Digest().add(text).add(timeline_csv).hex();
  }
};

class Pop : public Workload {
 public:
  explicit Pop(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    config_.towers.assign(kTowers, kProfile);
    config_.seed = seed_;
    config_.horizon = kHorizon;
    config_.arrivals.rate_per_min = 12;
    config_.watch_time = 120;
    config_.shared_content = true;
    config_.origin = origin::preset(origin::Mode::kHardened);
    config_.origin.validate();
    config_.diagnose = true;
    config_.collect_timeline = true;
    trace::profile_mean(kProfile);
    // The whole open-loop schedule, before any timing.
    const int pool = static_cast<int>(services::catalog().size());
    scheduled_ = 0;
    for (int t = 0; t < kTowers; ++t) {
      scheduled_ += pop::tower_arrivals(config_, t, pool).size();
    }
  }

  PassResult pass(int jobs) override {
    const double start = now_s();
    const Outputs out = run(config_, jobs);
    PassResult pass;
    pass.wall_s = now_s() - start;
    pass.sessions = static_cast<std::uint64_t>(out.report.total_sessions);
    pass.digest = out.digest();
    // Sessions share each tower's simulator loop, so the only host time
    // per session visible from outside is the pass's core time per session.
    pass.session_ms = {pass.wall_s * 1e3 * std::min(jobs, kTowers) /
                       std::max(1.0, static_cast<double>(pass.sessions))};
    if (pass.sessions != scheduled_) {
      // Every scheduled arrival must be hosted; a shortfall fails the pass.
      pass.failed = std::max(pass.sessions, scheduled_);
    }
    return pass;
  }

  void traced(TraceContext& ctx, RunResult& result) override;

 private:
  static Outputs run(const pop::PopulationConfig& base, int jobs) {
    pop::PopulationConfig config = base;
    config.jobs = jobs;
    Outputs out;
    out.report = pop::run_population(config);
    out.text = pop::population_text(out.report);
    out.timeline_csv = pop::population_timeline_csv(out.report);
    return out;
  }

  std::uint64_t seed_;
  pop::PopulationConfig config_;
  std::uint64_t scheduled_ = 0;
};

void Pop::traced(TraceContext& ctx, RunResult& result) {
  const int jobs = ctx.jobs;
  const int towers_in_parallel = std::min(jobs, kTowers);
  Outputs reference;
  const PassTimes times =
      traced_passes(ctx, "pop", [&](int pass_jobs, bool is_reference) {
        if (!is_reference) return run(config_, pass_jobs).digest();
        reference = run(config_, pass_jobs);
        return reference.digest();
      });
  const pop::PopulationReport& report = reference.report;
  const bool outputs_agree =
      times.outputs_agree &&
      static_cast<std::uint64_t>(report.total_sessions) == scheduled_;
  const double sessions = std::max(1, report.total_sessions);
  const double profiled_s = times.profiled_s;
  result.add("trace_overhead", times.profiled_s / times.untraced_s - 1,
             "fraction");
  add_zone_metrics(ctx.zones, result);

  // Towers: the most loaded worker sets the pass time. Per-tower host
  // times are not visible from outside (the profiler merges the pop.tower
  // zones of all threads), so imbalance is estimated as the profiled pass
  // time over the ideal one, the total tower time spread evenly over the
  // workers: max ÷ mean worker load, plus the fold after the join.
  const obs::ZoneStats tower = zone(ctx.zones, "pop.tower");
  const double tower_total_s = tower.total_ns / 1e9;
  result.add("pop.tower_ms",
             tower.count > 0 ? tower_total_s * 1e3 / tower.count : 0, "ms");
  result.add("pop.tower_imbalance",
             tower_total_s > 0
                 ? profiled_s * towers_in_parallel / tower_total_s
                 : 0,
             "ratio");
  result.add("pop.ms_per_session", tower_total_s * 1e3 / sessions, "ms");
  const obs::ZoneStats sim_run = zone(ctx.zones, "sim.run");
  result.add("sim.run_ms", sim_run.total_ns / 1e6 / sessions, "ms");
  // The named layer inside a tower is its simulator loop.
  result.add("layer_coverage",
             tower.total_ns > 0
                 ? static_cast<double>(sim_run.total_ns) / tower.total_ns
                 : 0,
             "fraction");
  int peak = 0;
  for (const pop::TowerReport& t : report.towers) {
    peak = std::max(peak, t.peak_concurrent);
  }
  result.add("pop.sessions", report.total_sessions, "count");
  result.add("pop.peak_concurrent", peak, "count");

  // Telemetry and diagnosis costs: interleaved re-runs with diagnosis off,
  // then with the timeline off too; medians of three.
  ctx.lane("pop cost re-runs");
  pop::PopulationConfig no_diag = config_;
  no_diag.diagnose = false;
  pop::PopulationConfig no_timeline = no_diag;
  no_timeline.collect_timeline = false;
  std::vector<double> full_s, no_diag_s, no_timeline_s;
  for (int rep = 0; rep < 3; ++rep) {
    for (auto [name, config, samples] :
         {std::tuple{"rerun.full", &config_, &full_s},
          std::tuple{"rerun.no_diag", &no_diag, &no_diag_s},
          std::tuple{"rerun.no_timeline", &no_timeline, &no_timeline_s}}) {
      SpanRecorder::Scope span(ctx.spans, name);
      pop::PopulationConfig c = *config;
      c.jobs = jobs;
      const double start = now_s();
      pop::run_population(c);
      samples->push_back(now_s() - start);
    }
  }
  result.add("pop.diag_cost_s", vodx::median(full_s) - vodx::median(no_diag_s), "s");
  result.add("pop.timeline_cost_s", vodx::median(no_diag_s) - vodx::median(no_timeline_s),
             "s");

  result.add("render.population_text_ms",
             median_ms(5, [&] { pop::population_text(report); }), "ms");
  result.add("render.population_jsonl_ms",
             median_ms(5, [&] { pop::population_jsonl(report); }), "ms");
  result.add("render.timeline_csv_ms",
             median_ms(5, [&] { pop::population_timeline_csv(report); }),
             "ms");

  const origin::OriginState::Totals& o = report.origin_totals;
  const double lookups = static_cast<double>(o.hits + o.misses);
  result.add("origin.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(o.hits) / lookups : 0,
             "fraction");
  result.add("origin.coalesced", static_cast<double>(o.coalesced), "count");
  result.add("origin.retries", static_cast<double>(o.retries), "count");
  result.add("origin.failover_trips", static_cast<double>(o.trips), "count");

  // Set-up probes, once per distinct title (service × tower content seed):
  // every arrival rebuilds its title, so this is the cost reuse would save.
  ctx.lane("pop title probes");
  const std::vector<services::ServiceSpec>& pool = services::catalog();
  core::SessionFactory factory;
  factory.session_duration = config_.horizon;
  factory.content_duration = config_.content_duration;
  int titles = 0;
  for (int t = 0; t < kTowers; ++t) {
    // run_tower's per-tower shared content seed ("cont" tag).
    const std::uint64_t content_seed = batch::derive_seed(
        config_.seed, 0x636F6E74ULL, static_cast<std::uint64_t>(t));
    for (const services::ServiceSpec& spec : pool) {
      core::SessionConfig session_config =
          factory.config(spec, net::BandwidthTrace());
      session_config.content_seed = content_seed;
      {
        SpanRecorder::Scope span(ctx.spans, "setup.encode", titles);
        services::make_asset(spec, config_.content_duration, content_seed);
      }
      {
        SpanRecorder::Scope span(ctx.spans, "setup.origin", titles);
        services::make_origin(spec, config_.content_duration, content_seed);
      }
      net::Simulator sim(config_.tick);
      net::Link link(sim, trace::cellular_profile(kProfile, content_seed),
                     config_.rtt);
      {
        SpanRecorder::Scope span(ctx.spans, "setup.session", titles);
        core::HostedSession hosted(sim, link, session_config);
      }
      probe_manifests(ctx.spans, titles, session_config);
      ++titles;
    }
  }
  std::map<std::string, double> probe_ms;
  for (const SpanStats& s : ctx.spans.summarize()) {
    probe_ms[s.name] = s.total_ns / 1e6 / std::max(1, titles);
  }
  result.add("setup.encode_ms", probe_ms["setup.encode"], "ms");
  result.add("setup.origin_ms", probe_ms["setup.origin"], "ms");
  result.add("setup.session_ms", probe_ms["setup.session"], "ms");
  result.add("setup.share",
             tower.total_ns > 0 ? sessions * probe_ms["setup.session"] /
                                      (tower.total_ns / 1e6)
                                : 0,
             "fraction");
  result.add("manifest.parse_ms", probe_ms["manifest.parse"], "ms");

  result.attempted = static_cast<std::uint64_t>(sessions);
  result.failed = outputs_agree ? 0 : result.attempted;
  result.correct = outputs_agree;
}

}  // namespace

std::unique_ptr<Workload> make_pop(std::uint64_t seed) {
  return std::make_unique<Pop>(seed);
}

}  // namespace vodxbench
