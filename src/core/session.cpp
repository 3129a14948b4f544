#include "core/session.h"

#include <algorithm>
#include <cmath>

#include "core/session_factory.h"
#include "net/link.h"
#include "net/simulator.h"

namespace vodx::core {

QoeReport qoe_from_events(const player::PlayerEvents& events,
                          const AnalyzedTraffic& traffic, Seconds session_end,
                          const QoeOptions& options) {
  QoeReport report;
  report.startup_delay = events.startup_delay();
  report.total_stall = events.total_stall_time(session_end);
  report.stall_count = static_cast<int>(events.stalls.size());
  report.total_bytes = traffic.total_payload_bytes;
  for (const SegmentDownload& d : traffic.downloads) {
    report.media_bytes += d.bytes;
  }

  // Displayed time per event: until the next display event (or session end).
  double bitrate_weighted = 0;
  for (std::size_t i = 0; i < events.displayed.size(); ++i) {
    const player::DisplayEvent& e = events.displayed[i];
    // Wall time is interrupted by stalls; displayed *media* seconds are the
    // position delta to the next event.
    const Seconds next_position = i + 1 < events.displayed.size()
                                      ? events.displayed[i + 1].position
                                      : e.position + e.duration;
    const Seconds shown = std::max(0.0, next_position - e.position);
    if (shown <= 0) continue;
    DisplayedSegment d;
    d.index = e.index;
    d.level = e.level;
    d.declared_bitrate = e.declared_bitrate;
    d.resolution = e.resolution;
    d.seconds_shown = shown;
    d.play_wall = e.wall_time;
    report.displayed.push_back(d);
    report.displayed_time += shown;
    bitrate_weighted += e.declared_bitrate * shown;
    report.time_by_height[e.resolution.height] += shown;
  }
  if (report.displayed_time > 0) {
    report.average_declared_bitrate = bitrate_weighted / report.displayed_time;
  }
  report.low_quality_fraction =
      report.fraction_at_or_below(options.low_quality_max_height);
  for (std::size_t i = 1; i < report.displayed.size(); ++i) {
    const int delta =
        std::abs(report.displayed[i].level - report.displayed[i - 1].level);
    if (delta > 0) ++report.switch_count;
    if (delta > 1) ++report.nonconsecutive_switch_count;
  }
  for (const player::ReplacementEvent& r : events.replacements) {
    report.wasted_bytes += r.old_bytes;
  }
  return report;
}

namespace {

// Session-level observability: root span, QoE summary metrics, and the
// truth-vs-inference divergence check. Divergence tolerances mirror what the
// validation tests accept — anything looser is flagged on the timeline so a
// trace viewer shows *where* the methodology breaks, not just that it did.
void emit_session_summary(obs::Observer* obs, const SessionResult& result,
                          int track) {
  obs::MetricsRegistry& m = obs->metrics;
  const QoeReport& truth = result.ground_truth;
  const QoeReport& inferred = result.qoe;
  m.gauge("session.startup_delay_s").set(truth.startup_delay);
  m.counter("session.stalls").add(truth.stall_count);
  m.gauge("session.stall_time_s").set(truth.total_stall);
  m.counter("session.switches").add(truth.switch_count);
  m.counter("session.total_bytes").add(truth.total_bytes);
  m.counter("session.media_bytes").add(truth.media_bytes);
  m.counter("session.wasted_bytes").add(truth.wasted_bytes);
  m.gauge("session.avg_bitrate_mbps")
      .set(truth.average_declared_bitrate / 1e6);
  m.gauge("inferred.startup_delay_s").set(inferred.startup_delay);
  m.gauge("inferred.stall_time_s").set(inferred.total_stall);
  // Ring-buffer truncation, surfaced as a metric so sweep rollups (and the
  // report warning rows) can flag cells whose trace-derived analyses —
  // including diag attribution — ran on an incomplete event window.
  m.counter("obs.dropped_events")
      .add(static_cast<std::int64_t>(obs->trace.dropped()));

  if (!obs->trace.enabled(obs::Category::kSession)) return;
  obs::TraceSink& trace = obs->trace;
  const Seconds end = result.session_end;
  trace.instant(
      end, obs::Category::kSession, "validate.summary", track,
      {obs::Field::n("truth_startup_s", truth.startup_delay),
       obs::Field::n("inferred_startup_s", inferred.startup_delay),
       obs::Field::n("truth_stall_s", truth.total_stall),
       obs::Field::n("inferred_stall_s", inferred.total_stall),
       obs::Field::n("truth_stalls", truth.stall_count),
       obs::Field::n("inferred_stalls", inferred.stall_count)});
  if (truth.startup_delay >= 0 &&
      std::abs(inferred.startup_delay - truth.startup_delay) > 0.5) {
    trace.instant(end, obs::Category::kSession, "diverge.startup_delay",
                  track,
                  {obs::Field::n("truth_s", truth.startup_delay),
                   obs::Field::n("inferred_s", inferred.startup_delay)});
  }
  const Seconds stall_tolerance = 0.25 * truth.total_stall + 3.0;
  if (std::abs(inferred.total_stall - truth.total_stall) > stall_tolerance) {
    trace.instant(end, obs::Category::kSession, "diverge.stall_time", track,
                  {obs::Field::n("truth_s", truth.total_stall),
                   obs::Field::n("inferred_s", inferred.total_stall),
                   obs::Field::n("tolerance_s", stall_tolerance)});
  }
  if (truth.average_declared_bitrate > 0 &&
      std::abs(inferred.average_declared_bitrate -
               truth.average_declared_bitrate) >
          0.1 * truth.average_declared_bitrate) {
    trace.instant(
        end, obs::Category::kSession, "diverge.bitrate", track,
        {obs::Field::n("truth_mbps", truth.average_declared_bitrate / 1e6),
         obs::Field::n("inferred_mbps",
                       inferred.average_declared_bitrate / 1e6)});
  }
}

}  // namespace

SessionResult run_session(const SessionConfig& config) {
  net::Simulator sim(config.sim_settings());
  // Blackout windows act on the link, not the proxy: the trace the session
  // actually runs over has them carved out.
  const bool has_blackouts =
      config.fault_plan && !config.fault_plan->blackouts.empty();
  net::Link link(sim, has_blackouts
                          ? faults::apply_blackouts(
                                config.trace, config.fault_plan->blackouts)
                          : config.trace);
  obs::Observer* obs = config.observer;
  int session_track = 0;
  if (obs != nullptr) {
    sim.set_observer(obs);  // also points the trace clock at this simulator
    link.set_observer(obs);
    session_track = obs->trace.track("session");
    if (obs->trace.enabled(obs::Category::kSession)) {
      obs->trace.begin(0, obs::Category::kSession, "session", session_track,
                       {obs::Field::t("service", config.spec.name),
                        obs::Field::n("duration_s", config.session_duration)});
    }
  }

  // World construction lives in HostedSession (shared with the population
  // runner, which hosts many of these on one simulator); this function owns
  // the single-session world: the private sim + link pair and the
  // session-level observability around the run.
  HostedSession session(sim, link, config);
  session.start();
  sim.run_until(config.session_duration);

  SessionResult result = session.finish(sim.now());

  if (obs != nullptr) {
    if (obs->trace.enabled(obs::Category::kSession)) {
      obs->trace.end(result.session_end, obs::Category::kSession, "session",
                     session_track,
                     {obs::Field::t("final_state",
                                    player::to_string(result.final_state)),
                      obs::Field::n("position_s", result.final_position)});
    }
    emit_session_summary(obs, result, session_track);
    // The trace clock captured `sim`, which dies with this frame: pin it to
    // the session end so later emits (exporters, tests) stay valid.
    const Seconds end = result.session_end;
    obs->trace.set_clock([end] { return end; });
  }
  return result;
}

}  // namespace vodx::core
