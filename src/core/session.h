// Session runner: one experiment = one service streamed over one bandwidth
// trace through the instrumented proxy (Figure 2's whole pipeline).
//
// Wires simulator + link + origin + proxy + player + UI monitor, runs for
// the session duration, then executes the full methodology (traffic
// analysis, UI inference, buffer inference, QoE) and also extracts the
// player's ground truth so experiments can validate the inference.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/buffer_inference.h"
#include "core/qoe.h"
#include "core/traffic_analyzer.h"
#include "core/ui_monitor.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "http/interceptor.h"
#include "http/proxy.h"
#include "net/bandwidth_trace.h"
#include "net/simulator.h"
#include "obs/observer.h"
#include "origin/origin.h"
#include "player/player.h"
#include "services/service_catalog.h"

namespace vodx::core {

/// The simulator settings (core, wall budget, per-instant event bound) are
/// the inherited net::SimSettings; run_session applies them to its
/// simulator. The grid tick and RTT are the fixed net::kTick and net::kRtt.
struct SessionConfig : net::SimSettings {
  static constexpr Seconds tick = net::kTick;
  static constexpr Seconds rtt = net::kRtt;

  services::ServiceSpec spec;
  net::BandwidthTrace trace;
  Seconds content_duration = 600;
  Seconds session_duration = 600;  ///< the paper runs 10-minute sessions
  std::uint64_t content_seed = 42;

  /// The title this session streams: services::make_origin(spec,
  /// content_duration, content_seed), built once by the caller and shared
  /// read-only by every session of that title (DESIGN.md §14). Null = the
  /// session builds its own. A given title must match those three fields.
  std::shared_ptr<const http::OriginServer> title;

  /// Interceptors registered on the proxy in order (black-box probe hooks,
  /// middleware). Each is attach()ed to the live proxy before the session
  /// starts; see http/interceptor.h for stage semantics.
  http::InterceptorChain interceptors;

  /// Scripted fault injection. Blackout windows are applied to `trace`
  /// before the link is built; the remaining faults run as a FaultInjector
  /// registered after `interceptors`.
  std::optional<faults::FaultPlan> fault_plan;

  /// Origin/CDN tier (DESIGN.md §16). mode kNone = no tier (the historical
  /// single-origin path, byte-identical). When enabled, an origin::OriginTier
  /// is registered FIRST on the proxy — before `interceptors` and the fault
  /// injector — so the edge cache short-circuits injected origin errors and
  /// the failover machinery sees injector-mutated responses.
  origin::OriginOptions origin;
  /// Shared cache/breaker state (population towers); null = per-session.
  std::shared_ptr<origin::OriginState> origin_state;

  QoeOptions qoe_options;

  /// Optional observability context. When set, run_session wires it through
  /// the whole stack (simulator, link, TCP, HTTP, player) and additionally
  /// emits session-level events: a root span covering the run, QoE summary
  /// metrics, and ground-truth-vs-inference divergence instants (category
  /// kSession) flagging where the black-box methodology disagrees with the
  /// player's own record. The pointer must outlive run_session().
  obs::Observer* observer = nullptr;
};

struct SessionResult {
  // Methodology outputs (what the paper's toolchain would produce).
  AnalyzedTraffic traffic;
  UiInference ui;
  QoeReport qoe;
  std::vector<BufferSample> buffer;

  // Ground truth (unavailable to the paper; used here for validation).
  player::PlayerEvents events;
  player::PlayerState final_state = player::PlayerState::kIdle;
  Seconds final_position = 0;
  QoeReport ground_truth;

  /// Faults actually fired (zeros when no fault plan was configured).
  faults::FaultInjector::Stats faults;

  Seconds session_end = 0;
};

/// Ground-truth QoE computed from player events + the wire log (validation
/// reference for compute_qoe()).
QoeReport qoe_from_events(const player::PlayerEvents& events,
                          const AnalyzedTraffic& traffic, Seconds session_end,
                          const QoeOptions& options = {});

SessionResult run_session(const SessionConfig& config);

}  // namespace vodx::core
