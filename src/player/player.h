// The HAS player engine.
//
// One Player instance is "an app": it resolves manifests over the simulated
// network, runs startup logic, drives audio/video download pipelines with
// pause/resume thresholds, adapts tracks with a pluggable ABR, optionally
// performs Segment Replacement, renders (advances a playback clock and
// consumes the buffer), and reports progress through a 1 Hz seekbar callback
// — the same channel the paper's UI monitor hooks (§2.4).
//
// Every behaviour is controlled by PlayerConfig; the 12 studied services are
// configurations of this one engine.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "http/http_client.h"
#include "manifest/presentation.h"
#include "net/simulator.h"
#include "obs/observer.h"
#include "player/abr.h"
#include "player/bandwidth_estimator.h"
#include "player/buffer.h"
#include "player/config.h"
#include "player/media_source.h"

namespace vodx::player {

enum class PlayerState {
  kIdle,
  kResolving,    ///< fetching manifests
  kStartup,      ///< filling the startup buffer
  kPlaying,
  kRebuffering,  ///< stalled mid-session
  kEnded,
  kFailed,
};

const char* to_string(PlayerState state);

/// Ground-truth QoE events, used to validate the black-box methodology.
struct StallEvent {
  Seconds start = 0;
  Seconds end = -1;  ///< -1 while ongoing
  Seconds duration(Seconds session_end) const {
    return (end >= 0 ? end : session_end) - start;
  }
};

struct DisplayEvent {
  Seconds wall_time = 0;  ///< when this segment started rendering
  Seconds position = 0;
  int index = 0;
  int level = 0;
  Bps declared_bitrate = 0;
  media::Resolution resolution;
  Seconds duration = 0;
};

struct ReplacementEvent {
  Seconds wall_time = 0;
  int index = 0;
  int old_level = 0;
  int new_level = 0;
  Bytes old_bytes = 0;  ///< wasted by the discard
};

struct PlayerEvents {
  Seconds session_start = 0;
  Seconds playback_started = -1;
  std::vector<StallEvent> stalls;
  std::vector<DisplayEvent> displayed;
  std::vector<ReplacementEvent> replacements;
  std::string failure;

  Seconds total_stall_time(Seconds session_end) const;
  Seconds startup_delay() const {
    return playback_started >= 0 ? playback_started - session_start : -1;
  }
};

class Player : public net::TickClient {
 public:
  Player(net::Simulator& sim, net::Link& link, http::Proxy& proxy,
         manifest::Protocol protocol, PlayerConfig config);
  ~Player();

  Player(const Player&) = delete;
  Player& operator=(const Player&) = delete;

  /// Attaches an observability context (propagates to the HTTP client and
  /// its TCP connections). Call before start(). The player contributes
  /// state-machine spans, stall and replacement instants, ABR decision
  /// events with their inputs, and 1 Hz buffer/bandwidth counter tracks.
  void set_observer(obs::Observer* observer);

  /// The user presses play at the current simulated time.
  void start(const std::string& manifest_url);

  /// The user closes the app (population departure): aborts every in-flight
  /// fetch, closes any open stall at the current instant, parks the state
  /// machine in kEnded and permanently shuts the HTTP client down — the
  /// link redistributes this session's share on its next allocation pass.
  /// The player also deregisters from the simulator, so a stopped player
  /// may be destroyed while the simulator keeps running. Idempotent; safe
  /// in any state, including a never-started player.
  void stop();

  /// 1 Hz playback-progress callback (the ProgressBar.setProgress analogue).
  using SeekbarFn = std::function<void(Seconds wall_time, int progress_sec)>;
  void set_seekbar_callback(SeekbarFn fn) { seekbar_ = std::move(fn); }

  // --- Readers -------------------------------------------------------------
  //
  // On the event core a player sleeps between its wakes and catches up when
  // poked (net::Simulator). What changes while it sleeps is its playback
  // position and its bandwidth meter, so:
  //   * state(), finished(), events(), presentation() and config() are valid
  //     at any time, also mid-run from another client or an event (the tower
  //     sampler reads state() and events() through HostedSession::sample);
  //   * position(), video_buffered(), video_buffer() and
  //     bandwidth_estimate() are valid only once the player is caught up:
  //     between run_until calls, or from inside its own callbacks.

  PlayerState state() const { return state_; }
  bool finished() const {
    return state_ == PlayerState::kEnded || state_ == PlayerState::kFailed;
  }
  const PlayerEvents& events() const { return events_; }
  const manifest::Presentation& presentation() const { return *presentation_; }
  const PlayerConfig& config() const { return config_; }

  Seconds position() const { return position_; }
  const PlaybackBuffer& video_buffer() const { return video_buffer_; }
  Bps bandwidth_estimate() const { return estimator_.estimate(); }

  // --- net::TickClient ----------------------------------------------------
  void tick(Seconds now, Seconds dt) override;
  /// Earliest instant the player could next do observable work on its own.
  /// Fetch completions poke it, so a fetch in flight does not keep it awake;
  /// the wake is the min of the next seekbar / obs-sample emission, the next
  /// retry-eligible time, the next fetch_timeout deadline, and — when
  /// playback advances — the next position crossing (segment display
  /// boundary, pipeline resume threshold, underrun, end of content), the
  /// last two with a two-tick safety margin.
  Seconds next_wake(Seconds now) override;
  /// Replays the ticks slept through: the bandwidth meter's busy time (one
  /// dt per tick in which the HTTP client delivered payload) and the
  /// playback-position recurrence (exactly `ticks` clamped additions, so
  /// the float result is identical to having executed the ticks).
  void fast_forward(Seconds now, Seconds dt, std::uint64_t ticks) override;

 private:
  struct Pipeline;  // per-content-type download state

  struct FetchInfo {
    int pipeline = 0;  ///< 0 = video, 1 = audio
    int index = 0;
    int level = 0;
    bool replacement = false;
    bool failed = false;
    // Split downloads: ids of sibling sub-requests still outstanding.
    int subrequests_remaining = 0;
    std::vector<int> transfer_ids;
    Bytes accumulated_bytes = 0;
    Seconds issued_at = 0;
    int attempt = 0;
  };

  struct PendingRetry {
    FetchInfo info;
    Seconds eligible_at = 0;
  };

  void on_manifest_ready(manifest::PresentationPtr presentation);
  void on_manifest_error(const std::string& reason);

  /// Single funnel for state transitions: keeps the trace's state span per
  /// state and the stall bookkeeping in one place.
  void set_state(PlayerState next);
  void begin_stall(const char* cause);
  void end_stall();
  void sample_observability();

  /// Adds one dt of meter busy time per delivery tick counted up to
  /// `delivered_ticks` (a DeliveryTally reading) and not yet seen.
  void account_meter(std::uint64_t delivered_ticks, Seconds dt);
  void advance_playback(Seconds dt);
  void update_state();
  void emit_seekbar();
  void record_display_if_new();

  void schedule_downloads();
  bool try_issue_video_fetch();
  bool try_issue_audio_fetch();
  void issue_segment_fetch(int pipeline, int index, int level,
                           bool replacement, int attempt = 0);
  /// Services the pipeline's retry queue; returns true if a retry was
  /// issued or the pipeline must wait for one (blocking future fetches).
  bool service_retries(int pipeline, int parallelism, bool* blocked);
  void on_segment_done(int fetch_key, const http::Response& response);
  /// Retry / downswitch / give-up policy for a fetch whose last attempt
  /// failed (HTTP error, reset, or timeout).
  void handle_fetch_failure(const FetchInfo& done);
  /// Aborts in-flight fetches older than config_.fetch_timeout and funnels
  /// them through handle_fetch_failure. No-op when the timeout is 0.
  void check_fetch_timeouts();
  void complete_segment(FetchInfo info);

  int select_video_level_for(int next_index);
  void maybe_trigger_cascade_sr(int target_level);
  std::optional<int> per_segment_sr_candidate(int target_level) const;

  const manifest::ClientTrack& video_track(int level) const;
  const manifest::ClientTrack& audio_track() const;
  PlaybackBuffer& buffer_of(int pipeline) {
    return pipeline == 0 ? video_buffer_ : audio_buffer_;
  }
  Seconds playable_end() const;

  net::Simulator& sim_;
  PlayerConfig config_;
  manifest::Protocol protocol_;
  std::unique_ptr<http::HttpClient> client_;
  std::unique_ptr<MediaSource> media_source_;
  std::unique_ptr<AbrPolicy> abr_;
  BandwidthEstimator estimator_;

  PlayerState state_ = PlayerState::kIdle;
  /// Empty until the manifests resolve; usually the title's own, shared by
  /// every session of the title (MediaSource).
  manifest::PresentationPtr presentation_;
  /// presentation_->duration(), cached at manifest time (it walks every
  /// segment and the per-tick paths consult it constantly).
  Seconds presentation_duration_ = 0;
  PlaybackBuffer video_buffer_;
  PlaybackBuffer audio_buffer_;

  Seconds position_ = 0;
  int startup_level_ = 0;
  int last_selected_level_ = 0;
  Seconds last_decision_buffer_ = 0;
  bool paused_[2] = {false, false};   ///< download control per pipeline
  int next_index_[2] = {0, 0};        ///< next future segment per pipeline
  int in_flight_count_[2] = {0, 0};
  std::map<int, FetchInfo> fetches_;  ///< by fetch key
  std::deque<PendingRetry> retries_[2];
  /// Jitter stream for retry backoff; consulted only when retry_jitter > 0,
  /// so stock configs never touch it.
  Rng retry_rng_;
  int next_fetch_key_ = 0;
  Seconds next_seekbar_at_ = 0;
  int last_display_index_ = -1;
  // Player-wide bandwidth meter state: busy time is one tick per grid tick
  // in which the client delivered payload (client_->deliveries()).
  Bytes meter_bytes_anchor_ = 0;
  std::uint64_t meter_ticks_seen_ = 0;
  Seconds meter_busy_time_ = 0;

  PlayerEvents events_;
  SeekbarFn seekbar_;

  obs::Observer* obs_ = nullptr;
  int player_track_ = 0;
  int abr_track_ = 0;
  Seconds next_obs_sample_at_ = 0;
  bool state_span_open_ = false;
  obs::Counter* stalls_metric_ = nullptr;
  obs::Histogram* stall_seconds_metric_ = nullptr;
  obs::Counter* decisions_metric_ = nullptr;
  obs::Counter* switches_metric_ = nullptr;
  obs::Counter* replacements_metric_ = nullptr;
  obs::Counter* wasted_bytes_metric_ = nullptr;
  obs::Counter* fetch_failures_metric_ = nullptr;
  obs::Histogram* segment_fetch_metric_ = nullptr;
};

}  // namespace vodx::player
