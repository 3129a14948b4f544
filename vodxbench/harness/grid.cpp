// grid: the `vodx report` path over the paper's own grid — 12 services ×
// 14 cellular profiles × 6 sweep seeds, 600 s sessions, metrics collected,
// then aggregation and every report and sweep renderer.
#include "batch/report.h"
#include "batch/sweep.h"
#include "core/session_factory.h"
#include "harness/common.h"
#include "harness/replay.h"
#include "support/digest.h"
#include "trace/cellular_profiles.h"

namespace vodxbench {
namespace {

using namespace vodx;

constexpr int kSweepSeeds = 6;

/// One pass's outputs, as `vodx report` renders them.
struct Outputs {
  batch::SweepResult result;
  std::string report_text, report_jsonl, report_html, sweep_csv, sweep_jsonl;

  std::string digest() const {
    return Digest().add(sweep_csv).add(report_jsonl).hex();
  }
};

class Grid : public Workload {
 public:
  explicit Grid(std::uint64_t seed) : seed_(seed) {}

  void setup() override {
    config_ = batch::full_grid();  // warms the service catalog
    config_.seeds.clear();
    for (int k = 0; k < kSweepSeeds; ++k) {
      config_.seeds.push_back(1 + seed_ * kSweepSeeds +
                              static_cast<std::uint64_t>(k));
    }
    config_.collect_metrics = true;
    for (int id : config_.profiles) trace::profile_mean(id);
    cells_ = config_.services.size() * config_.profiles.size() *
             config_.seeds.size();
    start_s_.assign(cells_, 0);
    cell_ms_.assign(cells_, 0);
  }

  PassResult pass(int jobs) override {
    const double start = now_s();
    const Outputs out = run(jobs);
    PassResult pass;
    pass.wall_s = now_s() - start;
    pass.sessions = out.result.cells.size();
    pass.failed = static_cast<std::uint64_t>(out.result.failed);
    pass.digest = out.digest();
    pass.session_ms = cell_ms_;
    return pass;
  }

  void traced(TraceContext& ctx, RunResult& result) override;

 private:
  std::size_t index_of(const batch::Cell& cell) const {
    return (static_cast<std::size_t>(cell.service_index) *
                config_.profiles.size() +
            static_cast<std::size_t>(cell.profile_index)) *
               config_.seeds.size() +
           static_cast<std::size_t>(cell.seed_index);
  }

  /// run_sweep + aggregate + render, with per-cell host time stamped from
  /// the engine's prepare (start) and progress (end) hooks.
  Outputs run(int jobs) {
    batch::SweepConfig config = config_;
    config.jobs = jobs;
    config.prepare = [this](const batch::Cell& cell, core::SessionConfig&) {
      start_s_[index_of(cell)] = now_s();
    };
    config.progress = [this](const batch::CellResult& cell, std::size_t,
                             std::size_t) {
      const std::size_t i = index_of(cell.cell);
      cell_ms_[i] = (now_s() - start_s_[i]) * 1e3;
    };
    Outputs out;
    out.result = batch::run_sweep(config);
    const batch::SweepMetrics metrics = batch::aggregate_metrics(out.result);
    out.report_text = batch::report_text(metrics);
    out.report_jsonl = batch::report_jsonl(out.result, metrics);
    out.report_html = batch::report_html(metrics);
    out.sweep_csv = batch::sweep_csv(out.result);
    out.sweep_jsonl = batch::sweep_jsonl(out.result);
    return out;
  }

  std::uint64_t seed_;
  batch::SweepConfig config_;
  std::size_t cells_ = 0;
  std::vector<double> start_s_;  ///< per cell, written by its worker
  std::vector<double> cell_ms_;
};

Counters sum_counters(const batch::SweepResult& result) {
  Counters totals;
  for (const batch::CellResult& cell : result.cells) {
    if (!cell.has_metrics) continue;
    for (const auto& [name, value] : work_counters(cell.metrics)) {
      totals[name] += value;
    }
  }
  return totals;
}

void Grid::traced(TraceContext& ctx, RunResult& result) {
  Outputs reference;
  const PassTimes times =
      traced_passes(ctx, "grid", [&](int jobs, bool is_reference) {
        if (!is_reference) return run(jobs).digest();
        reference = run(jobs);
        return reference.digest();
      });
  const double sessions = static_cast<double>(reference.result.cells.size());
  result.add("batch.parallel_efficiency",
             times.serial_s / (ctx.jobs * times.untraced_s), "fraction");
  result.add("trace_overhead", times.profiled_s / times.untraced_s - 1,
             "fraction");
  add_zone_metrics(ctx.zones, result);
  add_counter_metrics(sum_counters(reference.result), result);

  // Serial tail after the join: aggregation and rendering.
  const batch::SweepResult& r = reference.result;
  batch::SweepMetrics metrics;
  result.add("batch.aggregate_ms",
             median_ms(5, [&] { metrics = batch::aggregate_metrics(r); }),
             "ms");
  result.add("render.report_text_ms",
             median_ms(5, [&] { batch::report_text(metrics); }), "ms");
  result.add("render.report_jsonl_ms",
             median_ms(5, [&] { batch::report_jsonl(r, metrics); }), "ms");
  result.add("render.report_html_ms",
             median_ms(5, [&] { batch::report_html(metrics); }), "ms");
  result.add("render.sweep_csv_ms",
             median_ms(5, [&] { batch::sweep_csv(r); }), "ms");
  result.add("render.sweep_jsonl_ms",
             median_ms(5, [&] { batch::sweep_jsonl(r); }), "ms");

  std::uint64_t trace_emitted = 0, trace_dropped = 0;
  for (const batch::CellResult& cell : r.cells) {
    trace_emitted += cell.trace_emitted;
    trace_dropped += cell.trace_dropped;
  }
  result.add("obs.trace_emitted", static_cast<double>(trace_emitted), "count");
  result.add("obs.trace_dropped", static_cast<double>(trace_dropped), "count");

  // Replay every cell through the public pieces, serially, with spans.
  ctx.lane("grid replay");
  core::SessionFactory factory;
  factory.session_duration = config_.session_duration;
  factory.content_duration = config_.content_duration;
  factory.qoe_options = config_.qoe_options;
  factory.sim_core = config_.sim_core;
  ReplayTotals totals;
  for (std::size_t i = 0; i < r.cells.size(); ++i) {
    const batch::CellResult& cell = r.cells[i];
    if (!cell.ok) continue;
    const services::ServiceSpec& spec =
        config_.services[static_cast<std::size_t>(cell.cell.service_index)];
    const Replayed replayed = replay_session(
        ctx.spans, static_cast<int>(i),
        [&] {
          return factory.config(spec, cell.profile_id,
                                batch::trace_seed_for(cell.seed),
                                batch::content_seed_for(cell.seed));
        },
        ReplayOptions{});
    const Counters replay_counters = work_counters(replayed.metrics);
    const bool match =
        session_fingerprint(replayed.result) ==
            session_fingerprint(cell.result) &&
        replay_counters == work_counters(cell.metrics) &&
        static_cast<std::int64_t>(replayed.ticks_covered) ==
            replay_counters.at("sim.ticks");
    totals.add(replayed, match);
  }
  add_replay_metrics(ctx.spans, totals, result);
  ctx.notes.push_back(
      "replay: " + std::to_string(totals.matched) + " of " +
      std::to_string(totals.sessions) + " sessions reproduce the workload" +
      (totals.probes_agree ? "" : "; finish probes DISAGREE"));

  const std::uint64_t failed =
      static_cast<std::uint64_t>(reference.result.failed);
  const bool outputs_agree = times.outputs_agree;
  result.attempted = static_cast<std::uint64_t>(sessions);
  result.failed = outputs_agree ? failed : result.attempted;
  result.failed += static_cast<std::uint64_t>(totals.sessions - totals.matched);
  result.correct = outputs_agree && totals.matched == totals.sessions &&
                   totals.probes_agree;
}

}  // namespace

std::unique_ptr<Workload> make_grid(std::uint64_t seed) {
  return std::make_unique<Grid>(seed);
}

}  // namespace vodxbench
