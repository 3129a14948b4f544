// Every design knob the paper's Table 1 / Table 2 attribute to a service.
//
// A PlayerConfig fully determines a client's behaviour; the 12 studied
// services are instances of this struct (see services/service_catalog.h),
// and the black-box methodology's job is to recover these values without
// being told them.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"
#include "net/tcp_connection.h"

namespace vodx::player {

/// Client-side adaptation family.
enum class AbrKind {
  kThroughput,   ///< windowed throughput estimate with a safety factor
  kOscillating,  ///< buffer-slope chaser that never settles (the D1 behaviour)
  /// Buffer-based (BBA-style, Huang et al. SIGCOMM'14, discussed in the
  /// paper's §5): the track is a function of buffer occupancy alone once
  /// past the reservoir; throughput only seeds the startup phase.
  kBufferBased,
};

/// Segment Replacement policy (§4.1).
enum class SrPolicy {
  kNone,
  /// Cascade from the first buffered segment at a *different* level than the
  /// new target, replacing everything after it — the H4 behaviour that can
  /// replace higher-quality segments with lower-quality ones.
  kCascadeNaive,
  /// ExoPlayer v1: cascade from the first buffered segment below the last
  /// selected level. First replacement is an upgrade by construction; later
  /// ones re-run ABR and may not be.
  kCascadeExoV1,
  /// The paper's best practice: replace one segment at a time, individually,
  /// and only ever with a higher level (§4.1.3).
  kPerSegment,
};

/// How audio and video downloads share the connection pool (§3.2).
enum class AvScheduling {
  /// One scheduler: always fetch for whichever content type is behind.
  kSynced,
  /// Independent pipelines with dedicated connections — the D1 behaviour
  /// whose audio starves at low bandwidth.
  kIndependent,
};

struct PlayerConfig {
  std::string name = "player";

  // --- Transport (Table 1 "Max #TCP" / "Persistent TCP") ---------------
  int max_connections = 1;
  bool persistent_connections = true;
  /// D3 style: split one segment into sub-ranges across all connections.
  bool split_segment_downloads = false;
  /// Transient-failure handling: a failed segment fetch is retried this many
  /// times (with linear backoff) before the pipeline gives up.
  int fetch_retries = 3;
  Seconds retry_backoff = 0.5;
  net::TcpConfig tcp;  ///< rtt etc.; persistent flag is overridden

  // --- Startup (Table 1 "Startup buffer" / "Startup bitrate") ----------
  Seconds startup_buffer = 10;
  /// Best practice from §4.3: also require this many segments downloaded.
  int startup_min_segments = 1;
  Bps startup_bitrate = 500e3;  ///< resolved to the nearest track level

  // --- Download control (Table 1 pausing/resuming thresholds) ----------
  Seconds pausing_threshold = 30;
  Seconds resuming_threshold = 25;

  // --- Adaptation -------------------------------------------------------
  AbrKind abr = AbrKind::kThroughput;
  /// Select the highest track with (estimated need) <= safety * bandwidth.
  /// > 1 models the "aggressive" services of Fig. 9.
  double bandwidth_safety = 0.75;
  /// §4.2: estimate a track's need from actual upcoming segment sizes
  /// instead of the declared bitrate (requires the protocol to expose them).
  bool use_actual_bitrate = false;
  /// Don't switch down while the video buffer holds more than this
  /// (Table 1 "Decrease buffer"); 0 disables the damping.
  Seconds decrease_buffer = 0;
  /// kBufferBased: keep the lowest track until this much is buffered...
  Seconds bba_reservoir = 10;
  /// ...then walk the ladder linearly, reaching the top at
  /// reservoir + cushion buffered seconds.
  Seconds bba_cushion = 30;

  // --- Segment Replacement (§4.1) ---------------------------------------
  SrPolicy sr = SrPolicy::kNone;
  /// Stop replacing (and let future fetches resume) below this buffer level.
  Seconds sr_min_buffer = 10;
  /// kPerSegment only: replace segments whose existing quality is at most
  /// this height ("only discard low-quality segments", 0 = no limit).
  int sr_max_height = 0;

  // --- A/V coordination (§3.2) ------------------------------------------
  AvScheduling av_scheduling = AvScheduling::kSynced;

  // --- Resilience (vodx::faults hardening; every default is inert, so a
  // --- stock Table-1 config behaves exactly as before) -------------------
  /// Abort a segment fetch that has not completed after this many seconds
  /// and treat it as a failed attempt (0 = never time out).
  Seconds fetch_timeout = 0;
  /// Adds a seeded uniform extra of up to retry_jitter * retry_backoff to
  /// each retry delay, decorrelating retry storms (0 = deterministic linear
  /// backoff, no RNG consulted).
  double retry_jitter = 0;
  /// Seed for the retry-jitter stream (only read when retry_jitter > 0).
  std::uint64_t resilience_seed = 0x5EEDF001;
  /// When a segment exhausts its retries at level > 0, spend one final
  /// attempt at the lowest level instead of abandoning the pipeline.
  bool abandon_downswitch = false;
  /// Extra attempts for manifest-path resources (master/MPD, playlists,
  /// sidx) before the session fails (0 = first failure is fatal).
  int manifest_retries = 0;
  /// After manifest_retries, skip an unfetchable variant playlist / sidx
  /// track instead of failing the session, as long as one video track
  /// survives (stale-manifest fallback).
  bool tolerate_variant_loss = false;
};

}  // namespace vodx::player
