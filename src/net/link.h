// Shared bottleneck link.
//
// Models the cellular last hop the paper emulates with `tc`: a single
// bottleneck whose capacity follows a BandwidthTrace, shared max-min fairly
// by all attached TCP connections with demand. Per-connection rates are
// additionally capped by each connection's own cwnd/RTT (handled inside
// TcpConnection::advance).
//
// The link is a TickClient: while any connection is mid-transfer it ticks
// densely (the fluid model integrates per tick), but once every connection
// is idle its only remaining observable work is the on-change capacity /
// active-count emission, so next_wake() points the simulator at the next
// bandwidth-trace step (BandwidthTrace::next_change_after) — which also
// guarantees the obs capacity timeline records every trace step losslessly.
// An attached connection starting a transfer pokes the link awake.
#pragma once

#include <vector>

#include "common/units.h"
#include "net/bandwidth_trace.h"
#include "net/simulator.h"
#include "net/tcp_connection.h"
#include "obs/observer.h"

namespace vodx::net {

/// Max-min fair (progressive-filling) allocation of `capacity` across
/// `demands` into `grants`; flows with zero demand get zero. Exposed as a
/// free function so fairness properties (equal demands ⇒ equal grants,
/// water-filling monotonicity, conservation) are testable on raw demand
/// vectors; the Link calls it with reusable scratch storage so the per-tick
/// hot path never allocates.
void max_min_shares(const std::vector<Bps>& demands, Bps capacity,
                    std::vector<Bps>& grants,
                    std::vector<std::size_t>& active_scratch);

class Link : public TickClient {
 public:
  /// Registers itself as a tick client of `sim`. The link must outlive the
  /// simulator run.
  Link(Simulator& sim, BandwidthTrace trace, Seconds rtt = kRtt);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Adds a flow to the shared bottleneck; it starts competing for capacity
  /// on the next allocation pass.
  void attach(TcpConnection* connection);

  /// Removes a flow (session departure, client shutdown). Idempotent. The
  /// departing flow's share is redistributed to the survivors by the very
  /// next allocation pass — a detach between ticks is already excluded from
  /// that tick's snapshot.
  void detach(TcpConnection* connection);

  /// Currently attached flow count (population observability).
  int attached() const { return static_cast<int>(connections_.size()); }

  /// Attaches an observability context. The link emits a capacity counter
  /// track (sampled on change) and an active-connection-count track.
  void set_observer(obs::Observer* observer);

  const BandwidthTrace& trace() const { return trace_; }
  Seconds rtt() const { return rtt_; }

  /// Total payload bytes the link has carried (for conservation checks).
  Bytes total_delivered() const;

  // --- TickClient --------------------------------------------------------
  void tick(Seconds now, Seconds dt) override;
  Seconds next_wake(Seconds now) override;

 private:
  friend class TcpConnection;
  /// An attached connection is about to start a transfer: wake the link so
  /// it integrates it. The ticks it slept through need no replay: every
  /// connection was idle or closed then, where advance() does nothing.
  void wake_for_transfer() { sim_.poke(this); }

  Simulator& sim_;
  BandwidthTrace trace_;
  Seconds rtt_;
  std::vector<TcpConnection*> connections_;
  Bytes delivered_by_detached_ = 0;
  /// Bumped by every detach; lets tick() skip the per-connection liveness
  /// scan (quadratic at population scale) unless a completion callback
  /// actually detached something mid-tick.
  std::uint64_t detach_epoch_ = 0;

  // Per-tick scratch (the hot path must not allocate).
  std::vector<TcpConnection*> scratch_snapshot_;
  std::vector<Bps> scratch_demands_;
  std::vector<Bps> scratch_grants_;
  std::vector<std::size_t> scratch_active_;

  obs::Observer* obs_ = nullptr;
  int obs_track_ = 0;
  Bps last_capacity_emitted_ = -1;
  int last_active_emitted_ = -1;
};

}  // namespace vodx::net
