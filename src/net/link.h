// Shared bottleneck link.
//
// Models the cellular last hop the paper emulates with `tc`: a single
// bottleneck whose capacity follows a BandwidthTrace, shared max-min fairly
// by all attached TCP connections with demand. Per-connection rates are
// additionally capped by each connection's own cwnd/RTT (handled inside
// TcpConnection::advance).
//
// The link is a TickClient that sleeps through spans it can predict. Each
// tick, in the same pass that advances the connections, it bounds the first
// tick at which the allocation could change: a transfer could complete, a
// waiting connection could start streaming, a connection samples its cwnd
// series (TcpConnection::samples_cwnd), or the bandwidth trace steps
// (BandwidthTrace::next_change_after, which also keeps the obs capacity
// timeline lossless; a tick inside one trace piece reads its cached
// capacity, capacity_at). next_wake() returns that tick, and fast_forward()
// replays the slept ticks exactly: a connection that waits through the span,
// or streams saturated under the span's single rate cap, in closed form
// (TcpConnection::coast); the rest tick by tick, as advance() would have run
// them. Whatever changes a connection from outside the link's tick
// pokes the link first: a transfer start, an abort or close, a detach. A
// reader that changes nothing catches it up without rescheduling it
// (total_delivered()).
#pragma once

#include <limits>
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
  /// that tick's snapshot. Pokes the link first.
  void detach(TcpConnection* connection);

  /// Currently attached flow count (population observability).
  int attached() const { return static_cast<int>(connections_.size()); }

  /// Attaches an observability context. The link emits a capacity counter
  /// track (sampled on change) and an active-connection-count track.
  void set_observer(obs::Observer* observer);

  const BandwidthTrace& trace() const { return trace_; }
  Seconds rtt() const { return rtt_; }

  /// Total payload bytes the link has carried (for conservation checks and
  /// the population sampler), as of the current tick: a sleeping link is
  /// caught up first, without being rescheduled.
  Bytes total_delivered();

  /// Connection-ticks each path of fast_forward() has replayed over the
  /// link's life.
  const SpanReplayCounts& replay_counts() const { return counts_; }

  // --- TickClient --------------------------------------------------------
  void tick(Seconds now, Seconds dt) override;
  Seconds next_wake(Seconds now) override;
  void fast_forward(Seconds now, Seconds dt, std::uint64_t ticks) override;

 private:
  friend class TcpConnection;
  /// An attached connection is about to change outside the link's tick (a
  /// transfer starts, or one is abandoned): catch the link up and run it
  /// next. A transfer that starts mid-tick thus wakes it on the next tick.
  void poke() { sim_.poke(this); }

  /// trace_.at(now), from the trace piece the last lookup found. The piece
  /// holds until piece_end_ (its next_change_after); a lookup afresh runs
  /// once `now` comes within the simulator's 1e-9 wake slack of that end,
  /// so a grid tick a rounding error short of a boundary reads the trace
  /// as at() does. The link's clock never runs backwards.
  Bps capacity_at(Seconds now);

  /// Allocates `capacity` over `demands` into `grants`. Two shapes skip
  /// max_min_shares with the same floats: every active demand above the
  /// equal share (an equal split) or none above it (every demand fits).
  /// Returns the share of an equal split, 0 for any other allocation.
  Bps allocate(const std::vector<Bps>& demands, Bps capacity,
               std::vector<Bps>& grants);

  /// Spans shorter than this replay per tick: the closed forms' checks cost
  /// more than a few advance() calls.
  static constexpr std::uint64_t kCoastFrom = 4;

  /// One slept tick at `now` over the span's connections that did not
  /// coast.
  void replay_tick(Seconds now, Seconds dt);

  Simulator& sim_;
  BandwidthTrace trace_;
  Seconds rtt_;
  std::vector<TcpConnection*> connections_;
  Bps piece_capacity_ = 0;
  Seconds piece_end_ = -std::numeric_limits<double>::infinity();
  Bytes delivered_by_detached_ = 0;
  /// Bumped by every detach; lets tick() skip the per-connection liveness
  /// scan (quadratic at population scale) unless a completion callback
  /// actually detached something mid-tick.
  std::uint64_t detach_epoch_ = 0;
  /// Bumped by every transfer completion (TcpConnection::advance).
  std::uint64_t completions_ = 0;

  // Per-tick scratch (the hot path must not allocate).
  std::vector<TcpConnection*> scratch_snapshot_;
  std::vector<Bps> scratch_demands_;
  std::vector<Bps> scratch_grants_;
  std::vector<std::size_t> scratch_active_;

  // The span the link sleeps through, planned by the last tick(). Its busy
  // connections keep their phase for the whole span, apart from a wait
  // ending in streaming, so the replay walks them alone, in snapshot order.
  std::vector<TcpConnection*> span_;
  Bps span_capacity_ = 0;
  /// When the span's allocation reduces to one cap, each slept tick grants
  /// every connection min(demand, span_limit_): the equal share of an equal
  /// split that holds, or the capacity for a lone streamer. -1 when the
  /// replay allocates each tick afresh.
  Bps span_limit_ = -1;
  Seconds span_wake_ = kNeverWakes;  ///< what next_wake() returns
  /// The span's connections fast_forward() replays per tick.
  std::vector<TcpConnection*> replayed_;
  SpanReplayCounts counts_;
  Seconds synced_at_ = 0;  ///< grid time of the last tick accounted for

  obs::Observer* obs_ = nullptr;
  int obs_track_ = 0;
  Bps last_capacity_emitted_ = -1;
  int last_active_emitted_ = -1;
};

}  // namespace vodx::net
