#include "harness/replay.h"

#include "common/strings.h"
#include "core/buffer_inference.h"
#include "core/qoe.h"
#include "core/report.h"
#include "core/session_factory.h"
#include "core/traffic_analyzer.h"
#include "faults/fault_plan.h"
#include "http/origin_server.h"
#include "manifest/dash_mpd.h"
#include "manifest/hls.h"
#include "manifest/smooth.h"
#include "net/link.h"
#include "net/simulator.h"
#include "obs/observer.h"
#include "services/content_factory.h"

namespace vodxbench {

using namespace vodx;

const char* const kWorkCounters[] = {
    "sim.ticks",           "sim.events_fired",      "http.requests",
    "http.resets",         "tcp.transfers",         "tcp.idle_restarts",
    "abr.decisions",       "faults.injected",       "origin.cache.hits",
    "origin.cache.misses", "origin.cache.coalesced", "origin.retries",
    "origin.failover.trips",
};
const std::size_t kWorkCounterCount =
    sizeof kWorkCounters / sizeof kWorkCounters[0];

Counters work_counters(const obs::MetricsSnapshot& snapshot) {
  Counters out;
  for (std::size_t i = 0; i < kWorkCounterCount; ++i) {
    const obs::MetricsSnapshot::Entry* entry = snapshot.find(kWorkCounters[i]);
    out[kWorkCounters[i]] = entry == nullptr ? 0 : entry->count;
  }
  return out;
}

std::string session_fingerprint(const core::SessionResult& result) {
  const core::QoeReport& truth = result.ground_truth;
  return core::qoe_csv_row("", result) +
         format("%.17g,%.17g,%d,%lld,%s,%.17g", truth.startup_delay,
                truth.total_stall, truth.stall_count,
                static_cast<long long>(truth.total_bytes),
                player::to_string(result.final_state), result.session_end);
}

void ReplayTotals::add(const Replayed& replayed, bool match) {
  ++sessions;
  if (match) ++matched;
  probes_agree = probes_agree && replayed.probes_agree;
  ticks_covered += replayed.ticks_covered;
  ticks_executed += replayed.ticks_executed;
  delivered_mb += replayed.delivered_mb;
  sim_s += replayed.result.session_end;
}

void add_replay_metrics(const SpanRecorder& spans, const ReplayTotals& totals,
                        RunResult& result) {
  std::map<std::string, SpanStats> by_name;
  for (const SpanStats& s : spans.summarize()) by_name[s.name] = s;
  const auto total_ms = [&](const char* name) {
    const auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : it->second.total_ns / 1e6;
  };
  const double n = std::max(1, totals.sessions);
  const auto mean_ms = [&](const char* name) { return total_ms(name) / n; };

  const double session_ms = total_ms("session");
  result.add("setup.encode_ms", mean_ms("setup.encode"), "ms");
  result.add("setup.origin_ms", mean_ms("setup.origin"), "ms");
  result.add("setup.session_ms", mean_ms("setup.session"), "ms");
  result.add("setup.share",
             session_ms > 0 ? total_ms("setup.session") / session_ms : 0,
             "fraction");
  result.add("manifest.parse_ms", mean_ms("manifest.parse"), "ms");
  result.add("sim.run_ms", mean_ms("sim.run"), "ms");
  result.add("sim.ticks_covered", static_cast<double>(totals.ticks_covered),
             "count");
  result.add("sim.ticks_executed", static_cast<double>(totals.ticks_executed),
             "count");
  result.add("sim.exec_ratio",
             totals.ticks_covered > 0
                 ? static_cast<double>(totals.ticks_executed) /
                       static_cast<double>(totals.ticks_covered)
                 : 0,
             "fraction");
  result.add("sim.ns_per_executed_tick",
             totals.ticks_executed > 0
                 ? total_ms("sim.run") * 1e6 /
                       static_cast<double>(totals.ticks_executed)
                 : 0,
             "ns");
  result.add("link.delivered_mb", totals.delivered_mb, "MB");
  result.add("work.sim_s", totals.sim_s, "s");
  result.add("finish.ms", mean_ms("finish"), "ms");
  result.add("finish.traffic_ms", mean_ms("finish.traffic"), "ms");
  result.add("finish.buffer_ms", mean_ms("finish.buffer"), "ms");
  result.add("finish.qoe_ms", mean_ms("finish.qoe"), "ms");
  result.add("obs.snapshot_ms", mean_ms("obs.snapshot"), "ms");
  result.add("replay.sessions", totals.sessions, "count");
  result.add("replay.match_ratio", totals.matched / n, "fraction");
  // The session span's direct children, as a share of the session span.
  double covered = 0;
  for (const char* layer : {"config", "world", "setup.session", "sim.run",
                            "finish", "chaos.check", "obs.snapshot"}) {
    covered += total_ms(layer);
  }
  result.add("layer_coverage", session_ms > 0 ? covered / session_ms : 0,
             "fraction");
}

void add_counter_metrics(const Counters& totals, RunResult& result) {
  const auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second);
  };
  result.add("sim.events_fired", get("sim.events_fired"), "count");
  result.add("http.requests", get("http.requests"), "count");
  result.add("http.resets", get("http.resets"), "count");
  result.add("tcp.transfers", get("tcp.transfers"), "count");
  result.add("tcp.idle_restarts", get("tcp.idle_restarts"), "count");
  result.add("abr.decisions", get("abr.decisions"), "count");
  result.add("faults.injected", get("faults.injected"), "count");
  const double lookups =
      get("origin.cache.hits") + get("origin.cache.misses");
  result.add("origin.cache_hit_ratio",
             lookups > 0 ? get("origin.cache.hits") / lookups : 0, "fraction");
  result.add("origin.coalesced", get("origin.cache.coalesced"), "count");
  result.add("origin.retries", get("origin.retries"), "count");
  result.add("origin.failover_trips", get("origin.failover.trips"), "count");
}

void probe_manifests(SpanRecorder& spans, int session_id,
                     const core::SessionConfig& config) {
  const http::OriginServer origin = services::make_origin(
      config.spec, config.content_duration, config.content_seed);
  const auto fetch = [&](const std::string& url) {
    std::string body = origin.handle(http::Request{http::Method::kGet, url, {}})
                           .body;
    if (http::is_scrambled(body)) body = http::unscramble_manifest(body);
    return body;
  };
  const std::string entry = fetch(origin.manifest_url());
  SpanRecorder::Scope span(spans, "manifest.parse", session_id);
  switch (config.spec.protocol) {
    case manifest::Protocol::kHls:
      for (const manifest::HlsVariant& variant :
           manifest::HlsMasterPlaylist::parse(entry).variants) {
        manifest::HlsMediaPlaylist::parse(fetch("/" + variant.uri));
      }
      break;
    case manifest::Protocol::kDash:
      manifest::DashMpd::parse(entry);
      break;
    case manifest::Protocol::kSmooth:
      manifest::SmoothManifest::parse(entry);
      break;
  }
}

Replayed replay_session(SpanRecorder& spans, int session_id,
                        const std::function<core::SessionConfig()>& build,
                        const ReplayOptions& options) {
  Replayed out;
  obs::Observer observer;
  observer.trace.set_enabled(options.trace_enabled);
  core::SessionConfig config;
  {
    const int root = spans.open("session", session_id);
    {
      SpanRecorder::Scope span(spans, "config", session_id);
      config = build();
      config.observer = &observer;
    }

    // The world run_session builds, one public piece at a time.
    const int world_span = spans.open("world", session_id);
    net::Simulator sim(config.tick);
    sim.set_core(config.sim_core);
    sim.set_wall_budget(config.wall_budget);
    sim.set_max_events_per_instant(config.max_events_per_instant);
    const bool has_blackouts =
        config.fault_plan && !config.fault_plan->blackouts.empty();
    net::Link link(sim,
                   has_blackouts
                       ? faults::apply_blackouts(config.trace,
                                                 config.fault_plan->blackouts)
                       : config.trace,
                   config.rtt);
    sim.set_observer(&observer);
    link.set_observer(&observer);
    const int track = observer.trace.track("session");
    const bool session_events = observer.trace.enabled(obs::Category::kSession);
    if (session_events) {
      observer.trace.begin(
          0, obs::Category::kSession, "session", track,
          {obs::Field::t("service", config.spec.name),
           obs::Field::n("duration_s", config.session_duration)});
    }
    spans.close(world_span);

    const int ctor_span = spans.open("setup.session", session_id);
    core::HostedSession session(sim, link, config);
    spans.close(ctor_span);
    {
      SpanRecorder::Scope span(spans, "sim.run", session_id);
      session.start();
      sim.run_until(config.session_duration);
    }
    {
      SpanRecorder::Scope span(spans, "finish", session_id);
      out.result = session.finish(sim.now());
    }
    if (session_events) {
      observer.trace.end(
          out.result.session_end, obs::Category::kSession, "session", track,
          {obs::Field::t("final_state",
                         player::to_string(out.result.final_state)),
           obs::Field::n("position_s", out.result.final_position)});
    }
    if (options.check_invariants) {
      SpanRecorder::Scope span(spans, "chaos.check", session_id);
      out.invariants = chaos::check_invariants(config, out.result, observer);
    }
    {
      SpanRecorder::Scope span(spans, "obs.snapshot", session_id);
      out.metrics = observer.metrics.snapshot(out.result.session_end);
    }
    out.ticks_covered = sim.ticks_covered();
    out.ticks_executed = sim.ticks_executed();
    out.delivered_mb = static_cast<double>(link.total_delivered()) / 1e6;
    spans.close(root);

    {
      // Outside the timed session: the finish stages one by one, on the
      // session's own wire log.
      SpanRecorder::Scope probe(spans, "probe", session_id);
      const Seconds end = out.result.session_end;
      core::AnalyzedTraffic traffic;
      {
        SpanRecorder::Scope span(spans, "finish.traffic", session_id);
        try {
          traffic = core::analyze_traffic(session.proxy().log());
        } catch (const ParseError&) {
          traffic = core::AnalyzedTraffic{};
          traffic.total_payload_bytes = session.proxy().log().total_bytes();
        }
      }
      std::vector<core::BufferSample> buffer;
      {
        SpanRecorder::Scope span(spans, "finish.buffer", session_id);
        buffer = core::infer_buffer(traffic, out.result.ui, end);
      }
      core::QoeReport qoe;
      {
        SpanRecorder::Scope span(spans, "finish.qoe", session_id);
        qoe = core::compute_qoe(traffic, out.result.ui, end,
                                config.qoe_options);
      }
      out.probes_agree =
          traffic.downloads.size() == out.result.traffic.downloads.size() &&
          buffer.size() == out.result.buffer.size() &&
          qoe.startup_delay == out.result.qoe.startup_delay &&
          qoe.total_stall == out.result.qoe.total_stall &&
          qoe.average_declared_bitrate ==
              out.result.qoe.average_declared_bitrate;
    }
  }

  {
    SpanRecorder::Scope probe(spans, "probe", session_id);
    {
      SpanRecorder::Scope span(spans, "setup.encode", session_id);
      services::make_asset(config.spec, config.content_duration,
                           config.content_seed);
    }
    {
      SpanRecorder::Scope span(spans, "setup.origin", session_id);
      services::make_origin(config.spec, config.content_duration,
                            config.content_seed);
    }
    probe_manifests(spans, session_id, config);
  }
  return out;
}

}  // namespace vodxbench
