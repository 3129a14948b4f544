// Shared bottleneck link.
//
// Models the cellular last hop the paper emulates with `tc`: a single
// bottleneck whose capacity follows a BandwidthTrace, shared max-min fairly
// by all attached TCP connections with demand. Per-connection rates are
// additionally capped by each connection's own cwnd/RTT (handled inside
// TcpConnection::advance).
//
// The link is a TickClient that sleeps through spans it can predict. At the
// end of each tick it plans from the state the tick left: the busy
// connections, in the order the next tick will meet them, and the
// allocation that tick would compute from their demands. It then bounds the
// first tick at which that allocation could change: a transfer could
// complete, a waiting connection could start streaming, a connection
// samples its cwnd series (TcpConnection::samples_cwnd), or the bandwidth
// trace steps (BandwidthTrace::next_change_after, which also keeps the obs
// capacity timeline lossless; a tick inside one trace piece reads its cached
// capacity, capacity_at). next_wake() returns that tick, and fast_forward()
// replays the slept ticks exactly: a connection that waits through the span,
// or streams saturated under the span's single rate cap, in closed form
// (TcpConnection::coast); the rest tick by tick, as advance() would have run
// them. Whatever changes a connection from outside the link's tick pokes the
// link first: a transfer start, an abort or close, a detach. A poke from
// inside the link's own tick (a completion callback that starts, aborts or
// detaches a connection) needs no wake: the plan at the tick's end sees its
// outcome. A reader that changes nothing catches the link up without
// rescheduling it (total_delivered()).
//
// An equal split (every active demand above capacity / active) is one
// share for all its streamers. Its ticks, executed or replayed, advance the
// split's connections in one loop (advance_split) from one TickGrant and
// one saturating cwnd per rtt: the same operations advance() performs
// (TcpConnection::stream, inlined into the loop), with no per-connection
// demand, allocation, grant or call. A tick whose plan is still
// valid (no outside poke since, the same trace piece) takes the planned
// split's share without reading a demand.
#pragma once

#include <algorithm>
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
  /// An attached connection is about to change (a transfer starts, or one
  /// is abandoned or detached). From outside the link's tick: the plan no
  /// longer holds, so catch the link up and run it next. From inside its
  /// own tick (a completion callback): nothing, the tick's plan sees it.
  void poke() {
    if (in_tick_) {
      touched_ = true;
      return;
    }
    plan_valid_ = false;
    sim_.poke(this);
  }

  /// trace_.at(now), from the trace piece the last lookup found. The piece
  /// holds until piece_end_ (its next_change_after); a lookup afresh runs
  /// once `now` comes within the simulator's 1e-9 wake slack of that end,
  /// so a grid tick a rounding error short of a boundary reads the trace
  /// as at() does. The link's clock never runs backwards.
  Bps capacity_at(Seconds now);

  /// Allocates `capacity` over `demands`. An equal split (every active
  /// demand above the equal share) returns its share and leaves `grants`
  /// alone: the caller runs advance_split. Any other allocation lands in
  /// `grants` and returns 0; when no demand is above the share (every one
  /// fits) it skips max_min_shares with the same floats.
  Bps allocate(const std::vector<Bps>& demands, Bps capacity,
               std::vector<Bps>& grants);

  /// What plan() needs of the busy connections, folded in the order the
  /// next tick meets them. Demand never falls as cwnd grows, nor the ticks
  /// before streaming as a wait does, so the least cwnd (at the link's rtt)
  /// and the shortest wait stand for all of them.
  struct SpanFold {
    int streamers = 0;
    Bytes least_cwnd = std::numeric_limits<Bytes>::max();
    Bps lowest = std::numeric_limits<double>::infinity();  ///< other rtts
    Seconds shortest_wait = std::numeric_limits<double>::infinity();
    Seconds shortest_rtt = std::numeric_limits<double>::infinity();
    double nearest_end = std::numeric_limits<double>::infinity();  ///< bytes
    Seconds sample_at = kNeverWakes;  ///< a streamer's next cwnd sample
  };
  /// Adds `c` to span_ and `fold` if it is busy.
  void add_to_span(TcpConnection* c, SpanFold& fold);

  /// One tick at `now` of an equal split at `share` over `conns` in order:
  /// each streamer streams the share, each wait advances, and a connection
  /// a callback detached mid-tick is skipped. Folds each connection it
  /// advanced into `fold` (nullable) afterwards.
  void advance_split(const std::vector<TcpConnection*>& conns, Seconds now,
                     Seconds dt, Bps share, SpanFold* fold);

  /// Whether `c` left the link since detach_epoch_ read `epoch`. The
  /// liveness scan only runs once a detach has actually happened
  /// (population-scale ticks would otherwise go quadratic on it).
  bool detached_since(std::uint64_t epoch, const TcpConnection* c) const {
    return detach_epoch_ != epoch &&
           std::find(connections_.begin(), connections_.end(), c) ==
               connections_.end();
  }

  /// Plans the span after the tick at `now` under `capacity`, from span_
  /// and its fold.
  void plan(Seconds now, Seconds dt, Bps capacity, const SpanFold& fold);

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
  /// Bumped by every transfer completion (TcpConnection::complete).
  std::uint64_t completions_ = 0;

  // Per-tick scratch (the hot path must not allocate).
  std::vector<TcpConnection*> scratch_snapshot_;
  std::vector<Bps> scratch_demands_;
  std::vector<Bps> scratch_grants_;
  std::vector<std::size_t> scratch_active_;

  // The span the link sleeps through, planned by the last tick(). Its busy
  // connections keep their phase for the whole span, so the replay walks
  // them alone, in snapshot order.
  std::vector<TcpConnection*> span_;
  Bps span_capacity_ = 0;
  /// When the span's allocation reduces to one cap, each slept tick grants
  /// every connection min(demand, span_limit_): the equal share of an equal
  /// split that holds (span_split_), or the capacity for a lone streamer.
  /// -1 when the replay allocates each tick afresh.
  Bps span_limit_ = -1;
  bool span_split_ = false;
  int span_streamers_ = 0;  ///< the connections streaming in the span
  /// The plan still describes the connections: no poke from outside a tick
  /// since it was made.
  bool plan_valid_ = false;
  bool in_tick_ = false;  ///< inside tick(), where pokes need no wake
  /// A poke, attach or detach since the tick began: a callback may have
  /// changed a connection the tick's loop had already folded.
  bool touched_ = false;
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
