// Session construction, redesigned for hosting.
//
// Two pieces, both extracted from what used to live inline in run_session
// and be re-implemented by every caller that needed a session:
//
//  - SessionFactory: the single SessionConfig construction path. Shared
//    knobs (durations, QoE options, origin preset, and the inherited
//    net::SimSettings) are fields set once; config() resolves a service +
//    trace (given explicitly, or drawn from a cellular profile + seed) into
//    a ready SessionConfig.
//    chaos::make_session, batch::run_sweep's cell setup and the blackbox
//    probes all construct through here, so a new SessionConfig field is
//    threaded in exactly one place.
//
//  - HostedSession: one wired session (origin, proxy, interceptors, fault
//    injector, player, UI monitor) living on a *caller-owned* Simulator and
//    Link. This is the ownership inversion that population-scale simulation
//    needs: vodx::pop hosts N HostedSessions on one simulator whose
//    sessions contend on one shared Link, while run_session hosts exactly
//    one on a private pair. Construction order and wiring are identical to
//    the historical run_session body — single-session outputs are
//    byte-identical by contract.
//
//    The origin (the title: encoded asset plus rendered manifest bytes) is
//    immutable and shared: the session holds a shared_ptr<const
//    OriginServer>. A sweep or tower that streams one title many times
//    builds it once and passes it in SessionConfig::title; without one the
//    session builds a private title (run_session, chaos, blackbox probes).
//    Everything mutable — proxy, wire log, origin tier, player — stays per
//    session.
#pragma once

#include <memory>

#include "core/session.h"
#include "core/ui_monitor.h"
#include "faults/fault_injector.h"
#include "http/proxy.h"
#include "net/link.h"
#include "origin/origin.h"
#include "net/simulator.h"
#include "player/player.h"
#include "services/service_catalog.h"

namespace vodx::core {

/// Shared knobs, threaded into every SessionConfig this factory produces;
/// the simulator settings are the inherited net::SimSettings.
struct SessionFactory : net::SimSettings {
  Seconds session_duration = 600;
  Seconds content_duration = 600;
  QoeOptions qoe_options;
  /// Origin tier preset applied to every session (mode kNone = disabled).
  origin::OriginOptions origin;

  /// Throws ConfigError when `profile_id` is outside [1, kProfileCount].
  /// Exposed separately so batch::run_sweep can reject a cell before its
  /// attempt loop (a config error must count zero attempts).
  static void validate_profile(int profile_id);

  /// Explicit-trace path (blackbox probes, tests): the caller already has
  /// the bandwidth trace the session runs over.
  SessionConfig config(const services::ServiceSpec& spec,
                       net::BandwidthTrace trace) const;

  /// Cellular-profile path (sweep, chaos): validates the id, draws the
  /// profile's trace with `trace_seed` and seeds content generation.
  SessionConfig config(const services::ServiceSpec& spec, int profile_id,
                       std::uint64_t trace_seed,
                       std::uint64_t content_seed) const;

  /// By service name; throws ConfigError on unknown names.
  SessionConfig config(const std::string& service, int profile_id,
                       std::uint64_t trace_seed,
                       std::uint64_t content_seed) const;
};

/// One fully wired session hosted on a caller-owned simulator + link.
///
/// The caller decides the world: run_session builds a private Simulator and
/// a Link carrying this session's own trace; the population runner builds
/// one Simulator per tower and attaches many sessions to the tower's shared
/// Link. `config.trace` is ignored here — the Link already embodies it.
///
/// Lifecycle: construct (wires everything, registers tick clients), then
/// start(); the session advances as the caller runs the simulator. stop()
/// departs early: in-flight transfers abort, the HTTP client detaches from
/// the link (its share redistributes next tick), the player parks in
/// kEnded and deregisters from the simulator. finish(), finish_traffic()
/// and finish_light() assemble the SessionResult.
///
/// Must outlive neither the simulator nor the link; destroy sessions before
/// the pair. A live session is destroyed only between runs (after
/// run_until returns, as run_session does); a stopped one holds nothing
/// the simulator or link still reach, so it may be destroyed mid-run, even
/// from an event callback, while the pair runs on with other sessions (the
/// population runner frees each departed session this way).
class HostedSession {
 public:
  HostedSession(net::Simulator& sim, net::Link& link,
                const SessionConfig& config);

  HostedSession(const HostedSession&) = delete;
  HostedSession& operator=(const HostedSession&) = delete;

  /// Presses play at the current simulated time.
  void start();

  /// Early departure (see class comment). Idempotent.
  void stop();

  bool finished() const { return player_.finished(); }

  /// Full methodology: traffic analysis, UI + buffer inference, QoE, ground
  /// truth — exactly what run_session has always reported.
  SessionResult finish(Seconds session_end);

  /// finish() up to the traffic analysis: player events and the analyzed
  /// wire log, which is all diag::diagnose reads. UI, QoE, buffer and
  /// ground truth stay empty.
  SessionResult finish_traffic(Seconds session_end);

  /// Population-scale result: ground truth only (player events + the wire
  /// log's byte total). Skips analyze_traffic and the buffer inference,
  /// whose per-second arrays scale with the absolute horizon — per-session
  /// cost must not grow with a multi-hour population run.
  SessionResult finish_light(Seconds session_end);

  const player::Player& player() const { return player_; }
  player::Player& player() { return player_; }
  http::Proxy& proxy() { return proxy_; }

  /// Instantaneous state for population telemetry samplers (vodx::pop reads
  /// this once per timeline bin per live session). O(1), no allocation.
  struct Sample {
    player::PlayerState state = player::PlayerState::kIdle;
    /// Last displayed video rung, -1 before the first rendered segment.
    int rung = -1;
    bool playback_started = false;
  };
  Sample sample() const;

 private:
  QoeOptions qoe_options_;
  std::shared_ptr<const http::OriginServer> title_;
  http::Proxy proxy_;
  std::shared_ptr<origin::OriginTier> origin_tier_;
  std::shared_ptr<faults::FaultInjector> injector_;
  player::Player player_;
  UiMonitor ui_monitor_;
};

}  // namespace vodx::core
