#include "player/player.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/repeat_add.h"
#include "obs/profiler.h"

namespace vodx::player {

namespace {
constexpr double kEps = 1e-9;
/// What presentation() reads before the manifests resolve.
const manifest::PresentationPtr& no_presentation() {
  static const manifest::PresentationPtr empty =
      std::make_shared<const manifest::Presentation>();
  return empty;
}
constexpr int kVideoPipe = 0;
constexpr int kAudioPipe = 1;
/// Buffered seconds needed to resume after a stall.
constexpr Seconds kRebufferDuration = 5;
/// §4.3's closing suggestion: apply the segment-count constraint to stall
/// recovery too, not only to the initial startup.
constexpr int kRebufferMinSegments = 1;
}  // namespace

const char* to_string(PlayerState state) {
  switch (state) {
    case PlayerState::kIdle: return "idle";
    case PlayerState::kResolving: return "resolving";
    case PlayerState::kStartup: return "startup";
    case PlayerState::kPlaying: return "playing";
    case PlayerState::kRebuffering: return "rebuffering";
    case PlayerState::kEnded: return "ended";
    case PlayerState::kFailed: return "failed";
  }
  return "?";
}

Seconds PlayerEvents::total_stall_time(Seconds session_end) const {
  Seconds total = 0;
  for (const StallEvent& s : stalls) total += s.duration(session_end);
  return total;
}

Player::Player(net::Simulator& sim, net::Link& link, http::Proxy& proxy,
               manifest::Protocol protocol, PlayerConfig config)
    : sim_(sim),
      config_(std::move(config)),
      protocol_(protocol),
      presentation_(no_presentation()),
      video_buffer_(/*allow_mid_replacement=*/true),
      audio_buffer_(/*allow_mid_replacement=*/true),
      retry_rng_(config_.resilience_seed) {
  http::HttpClient::Options options;
  options.max_connections = config_.max_connections;
  options.tcp = config_.tcp;
  options.tcp.persistent = config_.persistent_connections;
  client_ = std::make_unique<http::HttpClient>(sim_, link, proxy, options);
  MediaSource::Options source_options{protocol};
  source_options.retries = config_.manifest_retries;
  source_options.tolerate_variant_loss = config_.tolerate_variant_loss;
  media_source_ = std::make_unique<MediaSource>(*client_, source_options,
                                                proxy.origin().resolution());
  abr_ = make_abr(config_);
  if (config_.sr != SrPolicy::kNone && config_.sr != SrPolicy::kPerSegment) {
    VODX_ASSERT(config_.max_connections == 1 || config_.av_scheduling ==
                                                    AvScheduling::kSynced,
                "cascade SR requires a single sequential video pipeline");
  }
  sim_.add_tick_client(this);
}

Player::~Player() { sim_.remove_tick_client(this); }

void Player::set_observer(obs::Observer* observer) {
  obs_ = observer;
  client_->set_observer(observer);
  if (obs_ == nullptr) {
    stalls_metric_ = decisions_metric_ = switches_metric_ = nullptr;
    replacements_metric_ = wasted_bytes_metric_ = fetch_failures_metric_ =
        nullptr;
    stall_seconds_metric_ = segment_fetch_metric_ = nullptr;
    return;
  }
  player_track_ = obs_->trace.track("player");
  abr_track_ = obs_->trace.track("abr");
  stalls_metric_ = &obs_->metrics.counter("player.stalls");
  stall_seconds_metric_ = &obs_->metrics.histogram(
      "player.stall_seconds", {0.5, 1, 2, 5, 10, 20, 40, 80});
  decisions_metric_ = &obs_->metrics.counter("abr.decisions");
  switches_metric_ = &obs_->metrics.counter("abr.switches");
  replacements_metric_ = &obs_->metrics.counter("player.replacements");
  wasted_bytes_metric_ = &obs_->metrics.counter("player.wasted_bytes");
  fetch_failures_metric_ = &obs_->metrics.counter("player.fetch_failures");
  segment_fetch_metric_ = &obs_->metrics.histogram(
      "player.segment_fetch_s", {0.25, 0.5, 1, 2, 4, 8, 16});
}

void Player::set_state(PlayerState next) {
  if (next == state_) return;
  if (obs::trace_on(obs_, obs::Category::kPlayer)) {
    const Seconds now = sim_.now();
    if (state_span_open_) {
      obs_->trace.end(now, obs::Category::kPlayer, to_string(state_),
                      player_track_);
    }
    obs_->trace.begin(now, obs::Category::kPlayer, to_string(next),
                      player_track_,
                      {obs::Field::t("from", to_string(state_))});
    state_span_open_ = true;
  }
  state_ = next;
}

void Player::begin_stall(const char* cause) {
  events_.stalls.push_back(StallEvent{sim_.now(), -1});
  if (stalls_metric_ != nullptr) stalls_metric_->add();
  if (obs::trace_on(obs_, obs::Category::kPlayer)) {
    obs_->trace.instant(sim_.now(), obs::Category::kPlayer, "stall.begin",
                        player_track_,
                        {obs::Field::t("cause", cause),
                         obs::Field::n("position_s", position_)});
  }
}

void Player::end_stall() {
  StallEvent& stall = events_.stalls.back();
  stall.end = sim_.now();
  const Seconds duration = stall.end - stall.start;
  if (stall_seconds_metric_ != nullptr) {
    stall_seconds_metric_->record(duration);
  }
  if (obs::trace_on(obs_, obs::Category::kPlayer)) {
    obs_->trace.instant(sim_.now(), obs::Category::kPlayer, "stall.end",
                        player_track_,
                        {obs::Field::n("duration_s", duration),
                         obs::Field::n("position_s", position_)});
  }
}

void Player::sample_observability() {
  if (!obs::trace_on(obs_, obs::Category::kPlayer)) return;
  const Seconds now = sim_.now();
  if (now < next_obs_sample_at_) return;
  next_obs_sample_at_ = now + 1.0;
  obs_->trace.counter(now, obs::Category::kPlayer, "buffer.video_s",
                      player_track_, video_buffer_.buffered_ahead(position_));
  if (presentation_->separate_audio()) {
    obs_->trace.counter(now, obs::Category::kPlayer, "buffer.audio_s",
                        player_track_,
                        audio_buffer_.buffered_ahead(position_));
  }
  obs_->trace.counter(now, obs::Category::kPlayer, "bw.estimate_mbps",
                      player_track_, estimator_.estimate() / 1e6);
}

void Player::start(const std::string& manifest_url) {
  VODX_ASSERT(state_ == PlayerState::kIdle, "player already started");
  sim_.poke(this);
  set_state(PlayerState::kResolving);
  events_.session_start = sim_.now();
  next_seekbar_at_ = sim_.now() + 1.0;
  next_obs_sample_at_ = sim_.now();
  // The resolution callbacks arrive from the link's tick: poke first.
  media_source_->resolve(
      manifest_url,
      [this](manifest::PresentationPtr p) {
        sim_.poke(this);
        on_manifest_ready(std::move(p));
      },
      [this](const std::string& reason) {
        sim_.poke(this);
        on_manifest_error(reason);
      });
}

void Player::stop() {
  // Catch up first: the outcome folds read the position. Stopped is final
  // (start() requires kIdle) and a stopped player's tick, next_wake and
  // fast_forward are no-ops, so leaving the simulator changes nothing
  // observable, and lets the owner destroy it mid-run.
  sim_.poke(this);
  sim_.remove_tick_client(this);
  if (finished() && client_->shut_down()) return;
  // Abort through the player path first so every transfer is logged as an
  // abort with its partial bytes, then shut the client down for good (which
  // also aborts anything the MediaSource still has outstanding).
  for (auto& [key, info] : fetches_) {
    for (int id : info.transfer_ids) client_->abort(id);
  }
  fetches_.clear();
  retries_[kVideoPipe].clear();
  retries_[kAudioPipe].clear();
  in_flight_count_[kVideoPipe] = 0;
  in_flight_count_[kAudioPipe] = 0;
  // A stall open at departure ends now: the viewer who leaves mid-stall
  // stops accumulating stall time (qoe_from_events would otherwise charge
  // it until session_end).
  if (!events_.stalls.empty() && events_.stalls.back().end < 0) end_stall();
  if (!finished()) set_state(PlayerState::kEnded);
  client_->shutdown();
}

void Player::on_manifest_ready(manifest::PresentationPtr presentation) {
  presentation_ = std::move(presentation);
  if (presentation_->video.empty()) {
    on_manifest_error("presentation has no video tracks");
    return;
  }
  // The ladder is immutable for the rest of the session and duration() walks
  // every segment; cache it for the per-tick paths.
  presentation_duration_ = presentation_->duration();
  // Resolve the configured startup bitrate to the nearest ladder rung.
  double best_gap = -1;
  for (int level = 0; level < static_cast<int>(presentation_->video.size());
       ++level) {
    const double gap =
        std::abs(presentation_->video[static_cast<std::size_t>(level)]
                     .declared_bitrate -
                 config_.startup_bitrate);
    if (best_gap < 0 || gap < best_gap) {
      best_gap = gap;
      startup_level_ = level;
    }
  }
  last_selected_level_ = startup_level_;
  // The meter's first active tick counts the whole resolution phase as one
  // busy tick, however many ticks delivered manifest bytes.
  const std::uint64_t delivered = client_->deliveries().ticks;
  if (delivered > meter_ticks_seen_) meter_ticks_seen_ = delivered - 1;
  set_state(PlayerState::kStartup);
  schedule_downloads();
}

void Player::on_manifest_error(const std::string& reason) {
  set_state(PlayerState::kFailed);
  events_.failure = reason;
  if (obs::trace_on(obs_, obs::Category::kPlayer)) {
    obs_->trace.instant(sim_.now(), obs::Category::kPlayer, "error.manifest",
                        player_track_, {obs::Field::t("reason", reason)});
  }
}

const manifest::ClientTrack& Player::video_track(int level) const {
  VODX_ASSERT(level >= 0 &&
                  level < static_cast<int>(presentation_->video.size()),
              "video level out of range");
  return presentation_->video[static_cast<std::size_t>(level)];
}

const manifest::ClientTrack& Player::audio_track() const {
  VODX_ASSERT(!presentation_->audio.empty(), "no audio tracks");
  return presentation_->audio.front();
}

Seconds Player::playable_end() const {
  Seconds end = video_buffer_.contiguous_end(position_);
  if (presentation_->separate_audio()) {
    end = std::min(end, audio_buffer_.contiguous_end(position_));
  }
  return end;
}

void Player::tick(Seconds /*now*/, Seconds dt) {
  switch (state_) {
    case PlayerState::kIdle:
    case PlayerState::kResolving:
    case PlayerState::kEnded:
    case PlayerState::kFailed:
      return;
    case PlayerState::kStartup:
    case PlayerState::kPlaying:
    case PlayerState::kRebuffering:
      break;
  }
  // Meter "busy" time as ticks in which payload actually flowed; pure
  // protocol waits (handshakes, request RTTs) would bias the rate estimate
  // by an amount that varies with segment size.
  account_meter(client_->deliveries().ticks, dt);
  if (state_ == PlayerState::kPlaying) advance_playback(dt);
  check_fetch_timeouts();
  update_state();
  schedule_downloads();
  emit_seekbar();
  sample_observability();
}

Seconds Player::next_wake(Seconds now) {
  switch (state_) {
    case PlayerState::kIdle:
    case PlayerState::kResolving:
    case PlayerState::kEnded:
    case PlayerState::kFailed:
      // tick() early-returns in these states; manifest resolution keeps the
      // link busy, which is what drives the kResolving phase forward.
      return net::TickClient::kNeverWakes;
    case PlayerState::kStartup:
    case PlayerState::kPlaying:
    case PlayerState::kRebuffering:
      break;
  }
  // The per-segment SR probe runs an ABR decision (counter + trace event)
  // every tick while future fetching is paused — never coast it.
  if (config_.sr == SrPolicy::kPerSegment) return now;

  // Fetches in flight need no wake: their completions poke the player, and
  // the meter replays the delivery ticks slept through. Whatever blocks a
  // pipeline from fetching while one is in flight (busy connections, the
  // parallelism cap, the A/V window) only lifts through a completion, a
  // retry or a position crossing, all covered here. With nothing in flight,
  // a pipeline that could issue a fetch right now means no coasting. (That
  // cannot normally happen — this very tick would have issued it — but stay
  // conservative.)
  const int video_count = static_cast<int>(video_track(0).segments.size());
  const int audio_count =
      presentation_->separate_audio()
          ? static_cast<int>(audio_track().segments.size())
          : 0;
  if (fetches_.empty()) {
    if (!paused_[kVideoPipe] && next_index_[kVideoPipe] < video_count) {
      return now;
    }
    if (!paused_[kAudioPipe] && next_index_[kAudioPipe] < audio_count) {
      return now;
    }
  }

  const Seconds dt = sim_.tick_duration();
  Seconds wake = net::TickClient::kNeverWakes;
  if (seekbar_) wake = std::min(wake, next_seekbar_at_);
  if (obs::trace_on(obs_, obs::Category::kPlayer)) {
    wake = std::min(wake, next_obs_sample_at_);
  }
  for (int pipe : {kVideoPipe, kAudioPipe}) {
    if (!retries_[pipe].empty()) {
      wake = std::min(wake, std::max(now, retries_[pipe].front().eligible_at));
    }
  }
  if (config_.fetch_timeout > 0) {
    // check_fetch_timeouts compares issued_at <= now - fetch_timeout; the
    // margin keeps float rounding from pushing the deadline tick past it.
    for (const auto& [key, info] : fetches_) {
      wake = std::min(wake, info.issued_at + config_.fetch_timeout - 2 * dt);
    }
  }

  if (state_ == PlayerState::kPlaying) {
    // Playback advances: wake two ticks before the earliest position
    // crossing so the crossing tick itself always executes (the margin
    // swallows every comparison epsilon, all of which are << tick).
    Seconds target = std::min(playable_end(), presentation_duration_);
    const BufferedSegment* current = video_buffer_.at_position(position_);
    if (current != nullptr) {
      // A segment not yet displayed (playback just started or resumed)
      // records its display event on the very next tick.
      if (current->index != last_display_index_) return now;
      // Entering the next segment records a display event.
      target = std::min(target, current->start + current->duration);
    }
    // A paused pipeline with future segments resumes (and fetches) once
    // buffered falls to the resuming threshold.
    auto resume_crossing = [&](int pipe, int count) {
      if (!paused_[pipe] || next_index_[pipe] >= count) return;
      target = std::min(target, buffer_of(pipe).contiguous_end(position_) -
                                    config_.resuming_threshold);
    };
    resume_crossing(kVideoPipe, video_count);
    if (presentation_->separate_audio()) {
      resume_crossing(kAudioPipe, audio_count);
    }
    wake = std::min(wake, now + (target - position_) - 2 * dt);
  }
  return wake;
}

void Player::account_meter(std::uint64_t delivered_ticks, Seconds dt) {
  // One dt per tick, added as the per-tick loop adds it (repeat_add), so
  // the float sum is the same however the ticks were batched.
  if (delivered_ticks <= meter_ticks_seen_) return;
  meter_busy_time_ =
      repeat_add(meter_busy_time_, dt, delivered_ticks - meter_ticks_seen_);
  meter_ticks_seen_ = delivered_ticks;
}

void Player::fast_forward(Seconds now, Seconds dt, std::uint64_t ticks) {
  (void)now;
  if (state_ != PlayerState::kStartup && state_ != PlayerState::kPlaying &&
      state_ != PlayerState::kRebuffering) {
    return;  // tick() does nothing in these states
  }
  // Each slept tick accounted at most one delivery tick, one dt each. The
  // current tick's delivery, if any, is left to the next tick() or
  // catch-up; the meter is read only in a completion, after the catch-up,
  // so it reads the sum the per-tick loop had reached.
  account_meter(client_->deliveries().ticks_before(sim_.now()), dt);
  if (state_ != PlayerState::kPlaying) return;
  // Replay advance_playback's position recurrence. The limit is
  // loop-invariant over a slept span (a completing download pokes the
  // player, which catches up before the segment lands, and the contiguous
  // run containing the position cannot shrink ahead of it), and next_wake
  // guarantees no display boundary or state threshold is crossed, so the
  // clamped additions are the span's only effect. The unclamped sums only
  // rise and the clamp holds once reached, so clamping the last sum is
  // exact.
  if (ticks > 0) {
    const Seconds limit = std::min(playable_end(), presentation_duration_);
    position_ = std::min(repeat_add(position_, dt, ticks), limit);
  }
  video_buffer_.consume_until(position_);
  if (presentation_->separate_audio()) audio_buffer_.consume_until(position_);
}

void Player::advance_playback(Seconds dt) {
  const Seconds limit = std::min(playable_end(), presentation_duration_);
  record_display_if_new();
  position_ = std::min(position_ + dt, limit);
  record_display_if_new();
  video_buffer_.consume_until(position_);
  if (presentation_->separate_audio()) audio_buffer_.consume_until(position_);
}

void Player::record_display_if_new() {
  const BufferedSegment* current = video_buffer_.at_position(position_);
  if (current == nullptr || current->index == last_display_index_) return;
  DisplayEvent event;
  event.wall_time = sim_.now();
  event.position = position_;
  event.index = current->index;
  event.level = current->level;
  event.declared_bitrate = current->declared_bitrate;
  event.resolution = current->resolution;
  event.duration = current->duration;
  events_.displayed.push_back(event);
  last_display_index_ = current->index;
}

void Player::update_state() {
  const Seconds duration = presentation_duration_;
  const Seconds ahead = playable_end() - position_;
  const bool content_exhausted = playable_end() >= duration - kEps;

  if (state_ == PlayerState::kStartup) {
    const bool enough_seconds = ahead >= config_.startup_buffer - kEps;
    const bool enough_segments =
        video_buffer_.contiguous_count(position_) >=
        config_.startup_min_segments;
    if ((enough_seconds && enough_segments) || content_exhausted) {
      set_state(PlayerState::kPlaying);
      events_.playback_started = sim_.now();
      if (obs::trace_on(obs_, obs::Category::kPlayer)) {
        obs_->trace.instant(
            sim_.now(), obs::Category::kPlayer, "playback.start",
            player_track_,
            {obs::Field::n("startup_delay_s", events_.startup_delay()),
             obs::Field::n("level", startup_level_)});
      }
      if (obs_ != nullptr) {
        obs_->metrics.gauge("player.startup_delay_s")
            .set(events_.startup_delay());
      }
      record_display_if_new();
    }
    return;
  }
  if (state_ == PlayerState::kPlaying) {
    if (position_ >= duration - 1e-6) {
      set_state(PlayerState::kEnded);
      // Final progress update: the UI shows the end position.
      if (seekbar_) seekbar_(sim_.now(), static_cast<int>(position_ + kEps));
      return;
    }
    if (ahead <= kEps) {
      set_state(PlayerState::kRebuffering);
      begin_stall("underrun");
    }
    return;
  }
  if (state_ == PlayerState::kRebuffering) {
    const Seconds needed =
        std::min(kRebufferDuration, duration - position_);
    const bool enough_segments =
        video_buffer_.contiguous_count(position_) >= kRebufferMinSegments;
    if ((ahead >= needed - kEps && enough_segments) || content_exhausted) {
      set_state(PlayerState::kPlaying);
      end_stall();
    }
  }
}

void Player::emit_seekbar() {
  if (!seekbar_) return;
  while (sim_.now() + kEps >= next_seekbar_at_) {
    seekbar_(sim_.now(), static_cast<int>(position_ + kEps));
    next_seekbar_at_ += 1.0;
  }
}

// ---------------------------------------------------------------------------
// Download scheduling
// ---------------------------------------------------------------------------

void Player::schedule_downloads() {
  if (state_ != PlayerState::kStartup && state_ != PlayerState::kPlaying &&
      state_ != PlayerState::kRebuffering) {
    return;
  }

  // Update pause/resume latches (§3.3.2 download control).
  auto update_latch = [&](int pipe) {
    const Seconds buffered = buffer_of(pipe).buffered_ahead(position_);
    if (buffered >= config_.pausing_threshold) paused_[pipe] = true;
    if (buffered <= config_.resuming_threshold) paused_[pipe] = false;
  };
  update_latch(kVideoPipe);
  if (presentation_->separate_audio()) update_latch(kAudioPipe);

  // Keep issuing while connections are available and some pipeline wants one.
  while (client_->can_fetch()) {
    bool issued = false;
    if (presentation_->separate_audio() &&
        config_.av_scheduling == AvScheduling::kSynced) {
      // Fetch for whichever content type is further behind, and never let
      // either run more than a small window ahead of the other — that is
      // the whole point of synchronised A/V scheduling (§3.2).
      constexpr Seconds kAvSyncWindow = 10;
      const Seconds video_end = video_buffer_.contiguous_end(position_);
      const Seconds audio_end = audio_buffer_.contiguous_end(position_);
      const bool audio_allowed = audio_end <= video_end + kAvSyncWindow;
      const bool video_allowed = video_end <= audio_end + kAvSyncWindow;
      if (audio_end <= video_end) {
        issued = (audio_allowed && try_issue_audio_fetch()) ||
                 (video_allowed && try_issue_video_fetch());
      } else {
        issued = (video_allowed && try_issue_video_fetch()) ||
                 (audio_allowed && try_issue_audio_fetch());
      }
    } else if (presentation_->separate_audio()) {
      // Independent pipelines: audio gets one dedicated connection, video
      // greedily uses the rest (the D1 arrangement, §3.2).
      issued = try_issue_audio_fetch();
      if (client_->can_fetch()) issued = try_issue_video_fetch() || issued;
    } else {
      issued = try_issue_video_fetch();
    }
    if (!issued) break;
  }
}

bool Player::try_issue_audio_fetch() {
  if (!presentation_->separate_audio() || paused_[kAudioPipe]) return false;
  bool retry_blocked = false;
  if (service_retries(kAudioPipe, 1, &retry_blocked)) return true;
  if (retry_blocked) return false;
  if (in_flight_count_[kAudioPipe] >= 1) return false;
  const manifest::ClientTrack& track = audio_track();
  if (next_index_[kAudioPipe] >= static_cast<int>(track.segments.size())) {
    return false;
  }
  issue_segment_fetch(kAudioPipe, next_index_[kAudioPipe], 0,
                      /*replacement=*/false);
  ++next_index_[kAudioPipe];
  return true;
}

bool Player::try_issue_video_fetch() {
  int parallelism = 1;
  if (config_.av_scheduling == AvScheduling::kIndependent) {
    parallelism = std::max(
        1, config_.max_connections - (presentation_->separate_audio() ? 1 : 0));
  }
  if (config_.split_segment_downloads) parallelism = 1;
  bool retry_blocked = false;
  if (service_retries(kVideoPipe, parallelism, &retry_blocked)) return true;
  if (retry_blocked) return false;
  if (in_flight_count_[kVideoPipe] >= parallelism) return false;

  const int segment_count =
      static_cast<int>(video_track(0).segments.size());
  const bool future_available =
      !paused_[kVideoPipe] && next_index_[kVideoPipe] < segment_count;

  // Improved SR runs while future fetching is paused (§4.1.3): the
  // bandwidth would otherwise go unused.
  if (!future_available) {
    if (config_.sr == SrPolicy::kPerSegment &&
        in_flight_count_[kVideoPipe] == 0 &&
        video_buffer_.buffered_ahead(position_) > config_.sr_min_buffer) {
      const int target = select_video_level_for(
          std::min(next_index_[kVideoPipe], segment_count - 1));
      if (auto candidate = per_segment_sr_candidate(target)) {
        issue_segment_fetch(kVideoPipe, *candidate, target,
                            /*replacement=*/true);
        return true;
      }
    }
    return false;
  }

  const int level = select_video_level_for(next_index_[kVideoPipe]);
  maybe_trigger_cascade_sr(level);
  last_selected_level_ = level;
  issue_segment_fetch(kVideoPipe, next_index_[kVideoPipe], level,
                      /*replacement=*/false);
  ++next_index_[kVideoPipe];
  return true;
}

int Player::select_video_level_for(int next_index) {
  VODX_PROFILE_ZONE("abr.decide");
  AbrContext context;
  context.presentation = presentation_.get();
  context.bandwidth_estimate = estimator_.estimate();
  context.estimator_samples = estimator_.sample_count();
  context.buffer = video_buffer_.buffered_ahead(position_);
  context.buffer_delta = context.buffer - last_decision_buffer_;
  context.last_level = last_selected_level_;
  context.next_index = next_index;
  context.startup_level = startup_level_;
  last_decision_buffer_ = context.buffer;
  int level = std::clamp(abr_->select_video_level(context), 0,
                         static_cast<int>(presentation_->video.size()) - 1);
  if (decisions_metric_ != nullptr) {
    decisions_metric_->add();
    if (level != context.last_level) switches_metric_->add();
  }
  if (obs::trace_on(obs_, obs::Category::kAbr)) {
    // The decision with its full input vector: this is what "why did it
    // switch here?" debugging needs, and what a bisect against ground
    // truth joins on (next_index).
    obs_->trace.instant(
        sim_.now(), obs::Category::kAbr, "abr.decide", abr_track_,
        {obs::Field::n("index", next_index),
         obs::Field::n("est_mbps", context.bandwidth_estimate / 1e6),
         obs::Field::n("samples", context.estimator_samples),
         obs::Field::n("buffer_s", context.buffer),
         obs::Field::n("last_level", context.last_level),
         obs::Field::n("level", level)});
  }
  return level;
}

void Player::maybe_trigger_cascade_sr(int target_level) {
  if (config_.sr != SrPolicy::kCascadeNaive &&
      config_.sr != SrPolicy::kCascadeExoV1) {
    return;
  }
  const int previous = last_selected_level_;
  if (target_level <= previous) return;
  if (video_buffer_.buffered_ahead(position_) <= config_.sr_min_buffer) return;

  const BufferedSegment* playing = video_buffer_.at_position(position_);
  const int playing_index = playing != nullptr ? playing->index : -1;
  int cascade_from = -1;
  for (const BufferedSegment& s : video_buffer_.segments()) {
    if (s.index <= playing_index) continue;
    const bool match = config_.sr == SrPolicy::kCascadeExoV1
                           ? s.level < previous
                           : s.level != target_level;
    if (match) {
      cascade_from = s.index;
      break;
    }
  }
  if (cascade_from < 0) return;
  // Suffix discard: the deque design cannot drop a single mid-buffer
  // segment, so everything from the match onward is thrown away (§4.1.2).
  for (const BufferedSegment& s : video_buffer_.discard_from(cascade_from)) {
    ReplacementEvent event;
    event.wall_time = sim_.now();
    event.index = s.index;
    event.old_level = s.level;
    event.new_level = -1;  // refetch level decided per segment later
    event.old_bytes = s.size;
    events_.replacements.push_back(event);
    if (replacements_metric_ != nullptr) {
      replacements_metric_->add();
      wasted_bytes_metric_->add(s.size);
    }
    if (obs::trace_on(obs_, obs::Category::kPlayer)) {
      obs_->trace.instant(
          sim_.now(), obs::Category::kPlayer, "sr.discard", player_track_,
          {obs::Field::n("index", s.index), obs::Field::n("level", s.level),
           obs::Field::n("target", target_level),
           obs::Field::n("wasted_bytes", static_cast<double>(s.size))});
    }
  }
  next_index_[kVideoPipe] = cascade_from;
}

std::optional<int> Player::per_segment_sr_candidate(int target_level) const {
  const BufferedSegment* playing = video_buffer_.at_position(position_);
  const int playing_index = playing != nullptr ? playing->index : -1;
  for (const BufferedSegment& s : video_buffer_.segments()) {
    if (s.index <= playing_index) continue;
    if (s.level >= target_level) continue;  // only ever upgrade
    if (config_.sr_max_height > 0 &&
        s.resolution.height > config_.sr_max_height) {
      continue;  // data-saver mode: leave decent segments alone
    }
    return s.index;
  }
  return std::nullopt;
}

bool Player::service_retries(int pipeline, int parallelism, bool* blocked) {
  *blocked = false;
  auto& queue = retries_[pipeline];
  if (queue.empty()) return false;
  *blocked = true;  // never fetch ahead past a hole that a retry will fill
  if (sim_.now() < queue.front().eligible_at ||
      in_flight_count_[pipeline] >= parallelism || !client_->can_fetch()) {
    return false;
  }
  const FetchInfo retry = queue.front().info;
  queue.pop_front();
  issue_segment_fetch(pipeline, retry.index, retry.level, retry.replacement,
                      retry.attempt);
  return true;
}

void Player::issue_segment_fetch(int pipeline, int index, int level,
                                 bool replacement, int attempt) {
  const manifest::ClientTrack& track =
      pipeline == kVideoPipe ? video_track(level) : audio_track();
  VODX_ASSERT(index >= 0 && index < static_cast<int>(track.segments.size()),
              "segment index out of range");
  const manifest::ClientSegment& segment =
      track.segments[static_cast<std::size_t>(index)];

  const int key = next_fetch_key_++;
  FetchInfo info;
  info.pipeline = pipeline;
  info.index = index;
  info.level = level;
  info.replacement = replacement;
  info.issued_at = sim_.now();
  info.attempt = attempt;

  // D3-style split download: one segment as parallel sub-range requests.
  int parts = 1;
  if (pipeline == kVideoPipe && config_.split_segment_downloads &&
      segment.range && config_.max_connections > 1) {
    parts = std::min(config_.max_connections, client_->free_slots());
    parts = std::max(parts, 1);
  }
  info.subrequests_remaining = parts;
  fetches_[key] = info;
  ++in_flight_count_[pipeline];

  auto deliver = [this, key](const http::Response& response) {
    sim_.poke(this);
    on_segment_done(key, response);
  };

  if (parts == 1) {
    http::Request request{http::Method::kGet, track.url_of(segment),
                          segment.range};
    const int id = client_->fetch(request, deliver);
    VODX_ASSERT(id >= 0, "scheduler issued fetch without a free connection");
    fetches_[key].transfer_ids.push_back(id);
    return;
  }
  const manifest::ByteRange range = *segment.range;
  const Bytes total = range.length();
  Bytes offset = range.first;
  for (int part = 0; part < parts; ++part) {
    const Bytes share = total / parts + (part < total % parts ? 1 : 0);
    http::Request request{http::Method::kGet, track.url_of(segment),
                          manifest::ByteRange{offset, offset + share - 1}};
    offset += share;
    const int id = client_->fetch(request, deliver);
    VODX_ASSERT(id >= 0, "split fetch without a free connection");
    fetches_[key].transfer_ids.push_back(id);
  }
}

void Player::on_segment_done(int fetch_key, const http::Response& response) {
  auto it = fetches_.find(fetch_key);
  VODX_ASSERT(it != fetches_.end(), "completion for unknown fetch");
  FetchInfo& info = it->second;
  if (!response.ok()) {
    info.failed = true;
  } else {
    info.accumulated_bytes += response.payload_size;
  }
  if (--info.subrequests_remaining > 0) return;
  FetchInfo done = info;
  fetches_.erase(it);
  --in_flight_count_[done.pipeline];
  if (done.failed) {
    handle_fetch_failure(done);
    return;
  }
  complete_segment(done);
}

void Player::handle_fetch_failure(const FetchInfo& done) {
  if (fetch_failures_metric_ != nullptr) fetch_failures_metric_->add();
  if (obs::trace_on(obs_, obs::Category::kPlayer)) {
    obs_->trace.instant(
        sim_.now(), obs::Category::kPlayer, "fetch.failed", player_track_,
        {obs::Field::n("index", done.index),
         obs::Field::n("level", done.level),
         obs::Field::n("attempt", done.attempt),
         obs::Field::n("replacement", done.replacement ? 1 : 0)});
  }
  // Transient failures get retried with linear backoff; replacement
  // downloads are opportunistic and are simply dropped. Once the retry
  // budget is exhausted the pipeline stops advancing — no further
  // content will arrive (which is exactly what the black-box startup
  // probe needs to observe).
  if (!done.replacement && done.attempt + 1 < config_.fetch_retries) {
    FetchInfo retry = done;
    retry.transfer_ids.clear();
    retry.accumulated_bytes = 0;
    retry.subrequests_remaining = 0;
    ++retry.attempt;
    Seconds backoff = config_.retry_backoff * retry.attempt;
    if (config_.retry_jitter > 0) {
      // Seeded jitter decorrelates retry storms; the stream is only ever
      // consumed here, so enabling it cannot perturb anything else.
      backoff += config_.retry_jitter * config_.retry_backoff *
                 retry_rng_.uniform(0, 1);
    }
    retries_[done.pipeline].push_back({retry, sim_.now() + backoff});
    return;
  }
  // Graceful abandon-and-downswitch: instead of giving the pipeline up,
  // spend one last attempt on the cheapest rendition. A level-0 failure
  // falls through to the give-up below.
  if (!done.replacement && config_.abandon_downswitch && done.level > 0) {
    FetchInfo retry = done;
    retry.transfer_ids.clear();
    retry.accumulated_bytes = 0;
    retry.subrequests_remaining = 0;
    retry.level = 0;
    retry.attempt = std::max(0, config_.fetch_retries - 1);
    if (obs::trace_on(obs_, obs::Category::kPlayer)) {
      obs_->trace.instant(sim_.now(), obs::Category::kPlayer,
                          "fetch.downswitch", player_track_,
                          {obs::Field::n("index", done.index),
                           obs::Field::n("from_level", done.level)});
    }
    retries_[done.pipeline].push_back(
        {retry, sim_.now() + config_.retry_backoff});
    return;
  }
  if (!done.replacement && obs::trace_on(obs_, obs::Category::kPlayer)) {
    obs_->trace.instant(sim_.now(), obs::Category::kPlayer,
                        "pipeline.giveup", player_track_,
                        {obs::Field::n("pipeline", done.pipeline),
                         obs::Field::n("index", done.index)});
  }
  next_index_[done.pipeline] =
      static_cast<int>((done.pipeline == kVideoPipe ? video_track(0)
                                                    : audio_track())
                           .segments.size());
}

void Player::check_fetch_timeouts() {
  if (config_.fetch_timeout <= 0 || fetches_.empty()) return;
  const Seconds deadline = sim_.now() - config_.fetch_timeout;
  // Collect first: aborting mutates client state, and handle_fetch_failure
  // may push retries that schedule_downloads turns into new fetches_.
  std::vector<int> expired;
  for (const auto& [key, info] : fetches_) {
    if (info.issued_at <= deadline) expired.push_back(key);
  }
  for (int key : expired) {
    auto it = fetches_.find(key);
    if (it == fetches_.end()) continue;
    FetchInfo done = it->second;
    for (int id : done.transfer_ids) client_->abort(id);
    fetches_.erase(it);
    --in_flight_count_[done.pipeline];
    if (obs::trace_on(obs_, obs::Category::kPlayer)) {
      obs_->trace.instant(
          sim_.now(), obs::Category::kPlayer, "fetch.timeout", player_track_,
          {obs::Field::n("index", done.index),
           obs::Field::n("level", done.level),
           obs::Field::n("waited_s", sim_.now() - done.issued_at)});
    }
    done.failed = true;
    handle_fetch_failure(done);
  }
}

void Player::complete_segment(FetchInfo info) {
  const manifest::ClientTrack& track = info.pipeline == kVideoPipe
                                           ? video_track(info.level)
                                           : audio_track();
  const manifest::ClientSegment& segment =
      track.segments[static_cast<std::size_t>(info.index)];

  if (info.pipeline == kVideoPipe) {
    // Player-wide bandwidth metering (the ExoPlayer BandwidthMeter idea):
    // all bytes the client received since the previous video completion,
    // over the time at least one transfer was active. This naturally
    // accounts for parallel segment downloads and for audio sharing the
    // pipe — a per-download rate would see only a fraction of the link.
    // The player's last tick may have read the tally while the link slept
    // through a span; here, inside the link's tick, the tally is current,
    // so the meter catches up to the same sum the per-tick loop reached.
    if (state_ == PlayerState::kStartup || state_ == PlayerState::kPlaying ||
        state_ == PlayerState::kRebuffering) {
      account_meter(client_->deliveries().ticks_before(sim_.now()),
                    sim_.tick_duration());
    }
    const Bytes delivered = client_->total_delivered();
    if (meter_busy_time_ > 1e-3) {
      estimator_.add_download(delivered - meter_bytes_anchor_,
                              meter_busy_time_);
    }
    meter_bytes_anchor_ = delivered;
    meter_busy_time_ = 0;
  }

  BufferedSegment buffered;
  buffered.type = track.type;
  buffered.index = info.index;
  buffered.level = info.level;
  buffered.declared_bitrate = track.declared_bitrate;
  buffered.resolution = track.resolution;
  buffered.start = track.segment_start(info.index);
  buffered.duration = segment.duration;
  buffered.size = info.accumulated_bytes;
  buffered.downloaded_at = sim_.now();

  if (segment_fetch_metric_ != nullptr) {
    segment_fetch_metric_->record(sim_.now() - info.issued_at);
  }
  if (obs::trace_on(obs_, obs::Category::kPlayer)) {
    obs_->trace.instant(
        sim_.now(), obs::Category::kPlayer, "segment.buffered", player_track_,
        {obs::Field::n("pipeline", info.pipeline),
         obs::Field::n("index", info.index), obs::Field::n("level", info.level),
         obs::Field::n("bytes", static_cast<double>(info.accumulated_bytes)),
         obs::Field::n("fetch_s", sim_.now() - info.issued_at),
         obs::Field::n("replacement", info.replacement ? 1 : 0)});
  }

  PlaybackBuffer& buffer = buffer_of(info.pipeline);
  if (info.replacement) {
    // Playback may have passed this segment while the replacement was in
    // flight; in that case the download is pure waste.
    if (buffer.find(info.index) != nullptr &&
        buffered.start >= position_ - kEps) {
      BufferedSegment old = buffer.replace(std::move(buffered));
      ReplacementEvent event;
      event.wall_time = sim_.now();
      event.index = info.index;
      event.old_level = old.level;
      event.new_level = info.level;
      event.old_bytes = old.size;
      events_.replacements.push_back(event);
      if (replacements_metric_ != nullptr) {
        replacements_metric_->add();
        wasted_bytes_metric_->add(old.size);
      }
      if (obs::trace_on(obs_, obs::Category::kPlayer)) {
        obs_->trace.instant(
            sim_.now(), obs::Category::kPlayer, "sr.replace", player_track_,
            {obs::Field::n("index", info.index),
             obs::Field::n("old_level", old.level),
             obs::Field::n("new_level", info.level),
             obs::Field::n("wasted_bytes", static_cast<double>(old.size))});
      }
    } else {
      // The replacement itself arrived too late to be used — pure waste.
      if (wasted_bytes_metric_ != nullptr) {
        wasted_bytes_metric_->add(info.accumulated_bytes);
      }
      if (obs::trace_on(obs_, obs::Category::kPlayer)) {
        obs_->trace.instant(
            sim_.now(), obs::Category::kPlayer, "sr.late", player_track_,
            {obs::Field::n("index", info.index),
             obs::Field::n("level", info.level),
             obs::Field::n(
                 "wasted_bytes",
                 static_cast<double>(info.accumulated_bytes))});
      }
    }
    return;
  }
  buffer.append(std::move(buffered));
  schedule_downloads();
}

}  // namespace vodx::player
