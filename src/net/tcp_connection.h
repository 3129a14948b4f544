// Fluid-approximation TCP connection.
//
// We do not simulate packets. A connection is a rate-limited pipe whose cap
// is cwnd/RTT; the Link grants each active connection a max-min fair share of
// the bottleneck every tick (replaying the ticks of a span it slept through,
// so the connection's state is current as of the link's last tick or
// catch-up). The model keeps the TCP behaviours that the paper's findings
// hinge on:
//
//  * connection setup costs a handshake RTT, and every request costs one RTT
//    before the first response byte (so non-persistent connections pay
//    handshake + slow-start per segment, §3.2),
//  * slow start doubles cwnd per RTT until the bottleneck saturates,
//  * on saturation cwnd is clamped to a small multiple of the fair-share BDP
//    (standing in for loss-based backoff) and grows linearly afterwards,
//  * a long idle period restarts slow start (RFC 2861 behaviour), which is
//    what makes on-off buffer-driven downloading re-pay the ramp-up.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/units.h"
#include "net/simulator.h"
#include "obs/observer.h"

namespace vodx::net {

inline constexpr Bytes kInitialCwnd = 14600;  ///< RFC 6928 IW10
/// cwnd cap = headroom * fair-share BDP.
inline constexpr double kQueueHeadroom = 1.5;

struct TcpConfig {
  Seconds rtt = kRtt;            ///< round-trip time to the origin
  bool persistent = true;        ///< reuse the connection across requests
};

class Link;

/// Counts the grid ticks in which any of a group of connections delivered
/// payload; several deliveries in one tick count once. A player's bandwidth
/// meter reads it to account the busy ticks it slept through.
struct DeliveryTally {
  std::uint64_t ticks = 0;
  Seconds last_at = -1;  ///< grid time of the latest counted tick

  /// A tick at or before the latest counted one was counted already.
  void note(Seconds now) {
    if (now <= last_at) return;
    last_at = now;
    ++ticks;
  }
  /// Counts the `span` ticks ending at `now` over which one connection
  /// delivered on every tick, once however many of the group's connections
  /// did. All of them lie after the latest counted tick: the link credits
  /// them before it replays any of them per tick, so the per-tick notes of
  /// the group's other connections add nothing to them.
  void note_span(Seconds now, std::uint64_t span) {
    if (now <= last_at) return;
    last_at = now;
    ticks += span;
  }
  /// Ticks counted strictly before the grid tick at `now`.
  std::uint64_t ticks_before(Seconds now) const {
    return last_at == now ? ticks - 1 : ticks;
  }
};

/// Connection-ticks a link replayed after sleeping through a span, by the
/// path that replayed them. A plain count, not an obs metric.
struct SpanReplayCounts {
  std::uint64_t fixed_point = 0;  ///< cwnd held at IW above the BDP cap
  std::uint64_t two_cycle = 0;    ///< cwnd alternating clamp / one CA step
  /// cwnd growing below the cap (slow start or congestion avoidance) or
  /// clamping into one of the regimes above
  std::uint64_t climb = 0;
  std::uint64_t waiting = 0;      ///< a handshake or request wait
  std::uint64_t per_tick = 0;     ///< TcpConnection::advance, tick by tick
  /// per-tick connection-ticks whose DeliveryTally a closed form credited
  std::uint64_t shared_tally = 0;

  std::uint64_t closed_form() const {
    return fixed_point + two_cycle + climb + waiting;
  }
};

/// Observer for byte-level accounting (traffic logging, waste analysis).
class TcpConnection {
 public:
  using CompletionFn = std::function<void()>;

  TcpConnection(TcpConfig config, std::string label);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Attaches an observability context; the connection gets its own trace
  /// track ("tcp <label>") carrying transfer spans, handshake / idle-restart
  /// instants and a cwnd counter sampled at most once per RTT.
  void set_observer(obs::Observer* observer);
  /// Whether the connection samples its tcp.cwnd_kb series: tcp tracing on
  /// and obs::kTcpCwndSeries kept by the mask. The emission site and the
  /// link's span planner both ask this, so a masked series wakes no tick.
  bool samples_cwnd() const {
    return obs_ != nullptr &&
           obs_->trace.enabled(obs::Category::kTcp, obs::kTcpCwndSeries);
  }
  /// Trace track id assigned by set_observer (for callers — the HTTP layer
  /// — that overlay their own spans on this connection's timeline).
  int obs_track() const { return obs_track_; }

  /// Ticks in which this connection delivers payload are noted in `tally`
  /// (nullable; not owned).
  void set_delivery_tally(DeliveryTally* tally) { tally_ = tally; }

  /// Starts fetching `bytes` of response payload. If the connection is
  /// closed a handshake is performed first; every request then waits one RTT
  /// for the first byte. `extra_wait` adds server-side first-byte latency on
  /// top of the protocol RTTs (fault injection). `on_complete` fires
  /// (synchronously, inside the link's tick) once the final byte arrives.
  /// Must not be busy. Pokes the attached link first: a transfer is what
  /// wakes a sleeping link.
  void start_transfer(Seconds now, Bytes bytes, CompletionFn on_complete,
                      Seconds extra_wait = 0);

  /// Abandons the in-flight transfer without firing its callback. Bytes
  /// already delivered stay counted in lifetime_delivered(). The connection
  /// is closed: a real client cannot cleanly reuse a connection with an
  /// abandoned response in flight. Pokes the attached link first, so a
  /// sleeping link replays the transfer up to now before it ends.
  void abort_transfer();

  /// Hard-closes the connection (e.g. after a mid-transfer reset observed by
  /// the HTTP layer). Aborts any in-flight transfer (which pokes the link);
  /// a subsequent start_transfer re-pays the handshake.
  void close();

  bool busy() const { return phase_ != Phase::kClosed && phase_ != Phase::kIdle; }
  bool connected() const { return phase_ != Phase::kClosed; }

  /// Bytes of the current transfer delivered so far.
  Bytes transfer_delivered() const { return transfer_delivered_; }

  /// Total payload bytes delivered over the connection's lifetime.
  Bytes lifetime_delivered() const { return lifetime_delivered_; }

  /// First-byte wait of the current/last transfer (handshake + request RTT +
  /// injected server latency); -1 while still waiting. Every tcp.transfer
  /// end event carries it, with the restart and limiter markers, as fields
  /// for root-cause attribution (vodx::diag).
  Seconds transfer_wait() const;

  Bytes cwnd() const { return cwnd_; }
  const TcpConfig& config() const { return config_; }
  const std::string& label() const { return label_; }

  // --- Link-facing interface -------------------------------------------

  /// Bandwidth this connection could consume this tick (0 unless streaming).
  Bps demand() const;

  /// Advances the connection by dt with the granted rate. `saturated` is true
  /// when the link could not satisfy this connection's full demand. A link
  /// that slept through a span makes these calls when it catches up, so
  /// whoever reads the connection from outside the link's tick catches the
  /// link up first (Simulator::poke or sync).
  void advance(Seconds now, Seconds dt, Bps granted, bool saturated);

 private:
  enum class Phase { kClosed, kHandshake, kRequestWait, kStreaming, kIdle };

  /// Span planning: a lower bound on the ticks of `dt` a waiting connection
  /// (handshake or request wait) still spends before the tick in which it
  /// starts streaming.
  double ticks_before_streaming(Seconds dt) const;
  void enter_streaming(Seconds now);
  void grow_cwnd(Bytes acked, Bps granted, bool saturated);
  /// Replays `ticks` slept ticks ending at `now` in closed form, exactly as
  /// that many advance() calls would. `limit` is the span's single rate cap
  /// (-1 when the link allocates per tick). Covers a wait that stays a wait,
  /// and a transfer saturated under the cap on every tick; returns false,
  /// changing nothing, for anything else.
  bool coast(Seconds now, Seconds dt, std::uint64_t ticks, Bps limit,
             SpanReplayCounts& counts);
  /// grow_cwnd over `ticks` saturated ticks that each ack `acked` bytes
  /// under the BDP cap `cap`, which clamps cwnd to `clamped`.
  void coast_cwnd(Bytes acked, double cap, Bytes clamped, std::uint64_t ticks,
                  SpanReplayCounts& counts);
  std::vector<obs::Field> transfer_end_fields(Bytes delivered,
                                              bool aborted) const;

  friend class Link;

  TcpConfig config_;
  std::string label_;
  Link* link_ = nullptr;  ///< set while attached
  DeliveryTally* tally_ = nullptr;
  Phase phase_ = Phase::kClosed;
  Seconds wait_remaining_ = 0;
  Bytes transfer_size_ = 0;
  double transfer_remaining_ = 0;  // fractional bytes for fluid accuracy
  Bytes transfer_delivered_ = 0;
  Bytes lifetime_delivered_ = 0;
  Bytes cwnd_ = 0;
  double ssthresh_ = 0;
  Seconds idle_since_ = 0;
  CompletionFn on_complete_;

  bool transfer_restart_ = false;
  Seconds transfer_extra_wait_ = 0;
  Seconds transfer_first_byte_ = -1;  ///< -1 until streaming begins
  Seconds sender_limited_s_ = 0;
  Seconds link_limited_s_ = 0;
  std::uint64_t transfer_count_ = 0;  ///< lifetime start_transfer calls

  obs::Observer* obs_ = nullptr;
  int obs_track_ = 0;
  Seconds transfer_started_ = 0;
  Seconds last_cwnd_emit_ = -1;
  obs::Counter* handshakes_metric_ = nullptr;
  obs::Counter* idle_restarts_metric_ = nullptr;
  obs::Counter* transfers_metric_ = nullptr;
  obs::Histogram* goodput_metric_ = nullptr;
};

}  // namespace vodx::net
