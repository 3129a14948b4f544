#include "core/session_factory.h"

#include "common/error.h"
#include "common/strings.h"
#include "services/content_factory.h"
#include "trace/cellular_profiles.h"

namespace vodx::core {

void SessionFactory::validate_profile(int profile_id) {
  if (profile_id < 1 || profile_id > trace::kProfileCount) {
    throw ConfigError(format("profile id %d out of range [1, %d]", profile_id,
                             trace::kProfileCount));
  }
}

SessionConfig SessionFactory::config(const services::ServiceSpec& spec,
                                     net::BandwidthTrace trace) const {
  SessionConfig session;
  session.spec = spec;
  session.trace = std::move(trace);
  session.session_duration = session_duration;
  session.content_duration = content_duration;
  session.qoe_options = qoe_options;
  session.sim_settings() = sim_settings();
  session.origin = origin;
  return session;
}

SessionConfig SessionFactory::config(const services::ServiceSpec& spec,
                                     int profile_id, std::uint64_t trace_seed,
                                     std::uint64_t content_seed) const {
  validate_profile(profile_id);
  SessionConfig session =
      config(spec, trace::cellular_profile(profile_id, trace_seed));
  session.content_seed = content_seed;
  return session;
}

SessionConfig SessionFactory::config(const std::string& service,
                                     int profile_id, std::uint64_t trace_seed,
                                     std::uint64_t content_seed) const {
  return config(services::service(service), profile_id, trace_seed,
                content_seed);
}

namespace {

player::PlayerConfig player_config_for(const SessionConfig& config) {
  player::PlayerConfig player_config = config.spec.player;
  player_config.tcp.rtt = config.rtt;
  return player_config;
}

}  // namespace

HostedSession::HostedSession(net::Simulator& sim, net::Link& link,
                             const SessionConfig& config)
    : qoe_options_(config.qoe_options),
      title_(config.title != nullptr
                 ? config.title
                 : std::make_shared<const http::OriginServer>(
                       services::make_origin(config.spec,
                                             config.content_duration,
                                             config.content_seed))),
      proxy_(*title_),
      player_(sim, link, proxy_, config.spec.protocol,
              player_config_for(config)) {
  // The origin tier goes first: its cache can short-circuit the whole chain
  // (edge hits bypass injected origin errors), and its response stage runs
  // last, seeing injector-mutated responses as primary-DC failures.
  if (config.origin.mode != origin::Mode::kNone) {
    origin_tier_ = std::make_shared<origin::OriginTier>(
        config.origin, config.origin_state,
        format("%s#%llu", config.spec.name.c_str(),
               static_cast<unsigned long long>(config.content_seed)));
    if (config.fault_plan) {
      origin_tier_->set_fault_schedule(config.fault_plan->cache_flushes,
                                       config.fault_plan->dc_blackouts);
    }
    origin_tier_->set_observer(config.observer);
    proxy_.use(origin_tier_);
  }
  for (const http::InterceptorPtr& interceptor : config.interceptors) {
    proxy_.use(interceptor);
  }
  // The fault injector goes last: probes see requests first, faults mutate
  // responses first (reverse-order response stage).
  if (config.fault_plan) {
    injector_ = std::make_shared<faults::FaultInjector>(*config.fault_plan);
    injector_->set_observer(config.observer);
    proxy_.use(injector_);
  }
  if (config.observer != nullptr) player_.set_observer(config.observer);
  player_.set_seekbar_callback([this](Seconds wall, int progress) {
    ui_monitor_.on_progress(wall, progress);
  });
}

void HostedSession::start() { player_.start(title_->manifest_url()); }

void HostedSession::stop() { player_.stop(); }

SessionResult HostedSession::finish(Seconds session_end) {
  SessionResult result = finish_traffic(session_end);
  result.ui = ui_monitor_.infer(result.events.session_start);
  result.qoe =
      compute_qoe(result.traffic, result.ui, session_end, qoe_options_);
  result.buffer = infer_buffer(result.traffic, result.ui, session_end);
  result.ground_truth =
      qoe_from_events(result.events, result.traffic, session_end,
                      qoe_options_);
  return result;
}

SessionResult HostedSession::finish_traffic(Seconds session_end) {
  SessionResult result;
  result.session_end = session_end;
  result.events = player_.events();
  result.final_state = player_.state();
  result.final_position = player_.position();

  try {
    result.traffic = analyze_traffic(proxy_.log());
  } catch (const ParseError&) {
    // A session can legitimately end with an unanalyzable wire log — e.g.
    // every manifest fetch failed under injected faults and the player
    // parked in its error state. That is a (bad) outcome to report, not a
    // crash: carry on with an empty analysis and zeroed QoE.
    result.traffic = AnalyzedTraffic{};
    result.traffic.total_payload_bytes = proxy_.log().total_bytes();
  }
  if (injector_ != nullptr) result.faults = injector_->stats();
  return result;
}

HostedSession::Sample HostedSession::sample() const {
  Sample sample;
  sample.state = player_.state();
  const player::PlayerEvents& events = player_.events();
  sample.playback_started = events.playback_started >= 0;
  if (!events.displayed.empty()) sample.rung = events.displayed.back().level;
  return sample;
}

SessionResult HostedSession::finish_light(Seconds session_end) {
  SessionResult result;
  result.session_end = session_end;
  result.events = player_.events();
  result.final_state = player_.state();
  result.final_position = player_.position();
  result.traffic.total_payload_bytes = proxy_.log().total_bytes();
  result.ground_truth =
      qoe_from_events(result.events, result.traffic, session_end,
                      qoe_options_);
  if (injector_ != nullptr) result.faults = injector_->stats();
  return result;
}

}  // namespace vodx::core
