// Black-box experiments (§2.2, §3.3, §4.2).
//
// Each probe runs controlled sessions against a service and deduces one
// design property from the outside:
//
//  * probe_startup        — reject video segments after the first n; the
//                           minimal n that lets playback begin reveals the
//                           startup buffer (seconds *and* segment count) and
//                           the startup track (§3.3.1).
//  * probe_thresholds     — constant 10 Mbps; the on-off download pattern's
//                           buffer levels reveal pausing/resuming (§3.3.2).
//  * probe_steady_state   — constant bandwidth; does track selection
//                           stabilise, and how close to the link rate is the
//                           converged track (stability / aggressiveness,
//                           Figures 8-9)?
//  * probe_step_response  — step the bandwidth down mid-session; the buffer
//                           level at the first down-switch reveals whether
//                           the player spends its buffer before switching
//                           (Table 1 "Decrease buffer").
//  * probe_declared_vs_actual — serve the two Fig.-12 manifest variants
//                           (same declared ladder, shifted actual bitrates);
//                           identical track choices prove the ABR ignores
//                           actual bitrates (§4.2).
//
// Probes perturb traffic through the Interceptor chain (http/interceptor.h)
// and take their tunables as per-probe Options structs with named fields.
#pragma once

#include <optional>

#include "core/session.h"

namespace vodx::core {

/// Rejects video segment requests once `allow` distinct segments have been
/// let through (manifests, playlists, sidx and audio stay unrestricted).
/// Classifies requests against the live proxy's traffic log.
http::InterceptorPtr reject_after_n_video_segments(int allow);

struct StartupProbe {
  bool playback_achievable = false;
  int min_segments = 0;         ///< minimal segment count for playback
  Seconds startup_buffer = 0;   ///< duration of those segments
  Bps startup_bitrate = 0;      ///< declared bitrate of the first segment
};
StartupProbe probe_startup(const services::ServiceSpec& spec);

struct ThresholdProbe {
  int pause_cycles = 0;
  Seconds pausing_threshold = 0;   ///< mean buffer level when downloads stop
  Seconds resuming_threshold = 0;  ///< mean buffer level when they resume
};
ThresholdProbe probe_thresholds(const services::ServiceSpec& spec);

struct SteadyStateProbeOptions {
  Bps bandwidth = 0;       ///< constant link rate (bits/second); required
  Seconds duration = 600;  ///< session length (seconds)
  Seconds warmup = 120;    ///< seconds excluded from steady-state stats
};

struct SteadyStateProbe {
  bool converged = false;        ///< one track covers >= 90% of steady time
  int distinct_levels = 0;
  int steady_switches = 0;
  Bps modal_declared_bitrate = 0;
  double declared_over_bandwidth = 0;  ///< Fig.-9 y/x ratio
};
SteadyStateProbe probe_steady_state(const services::ServiceSpec& spec,
                                    const SteadyStateProbeOptions& options);

struct StepProbe {
  bool switched_down = false;
  Seconds buffer_at_downswitch = 0;
  /// True when the switch happened while more than 60 s were still
  /// buffered (the player did not spend its buffer first).
  bool immediate = false;
};
/// Drops a 6 Mbps link to 1.5 Mbps 150 s into a 500 s session.
StepProbe probe_step_response(const services::ServiceSpec& spec);

/// §3.1's encoding analysis: gather the actual/declared bitrate ratios of
/// the highest video track the way the methodology does — DASH exposes
/// sizes on the wire (sidx / MPD ranges); HLS and SmoothStreaming need one
/// HTTP HEAD per segment (the paper uses curl). All traffic goes through a
/// real simulated session + prober, not origin shortcuts.
struct EncodingProbe {
  bool sizes_from_wire = false;  ///< true when no HEAD probing was needed
  std::vector<double> ratios;    ///< per-segment actual/declared

  bool looks_cbr(double tolerance = 0.10) const;
  /// kPeak when the declared bitrate sits near the max actual, kAverage when
  /// it sits near the mean.
  media::DeclaredPolicy inferred_policy() const;
};
EncodingProbe probe_encoding(const services::ServiceSpec& spec);

/// Fig.-12 manifest rewrites (DASH only), as manifest-stage interceptors.
http::InterceptorPtr shift_tracks_variant();
http::InterceptorPtr drop_lowest_variant();

struct DeclaredVsActualOptions {
  Bps bandwidth = 2 * kMbps;  ///< constant link rate (bits/second)
  Seconds duration = 600;     ///< session length (seconds)
};

struct DeclaredVsActualProbe {
  Bps selected_declared_variant1 = 0;  ///< steady-state modal declared
  Bps selected_declared_variant2 = 0;
  /// Same declared bitrate chosen although actual bitrates differ by a full
  /// rung -> the player only reads the declared bitrate.
  bool declared_only = false;
  double bandwidth_utilization = 0;  ///< §4.2's 33.7% figure (variant-free run)
};
DeclaredVsActualProbe probe_declared_vs_actual(
    const services::ServiceSpec& spec,
    const DeclaredVsActualOptions& options = {});

}  // namespace vodx::core
