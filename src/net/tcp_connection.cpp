#include "net/tcp_connection.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/repeat_add.h"
#include "net/link.h"

namespace vodx::net {

namespace {
constexpr double kHandshakeRtts = 1.0;    ///< 1 for TCP, 3 for TCP+TLS1.2
/// A persistent connection idle for longer than this restarts slow start.
constexpr Seconds kIdleRestartAfter = 0.5;
}  // namespace

TickGrant::TickGrant(Bps rate, Seconds dt, Seconds rtt)
    : bytes(rate * dt / 8.0),
      // Only a transfer with more than `bytes` left uses the ack, and no
      // transfer has 2^62 bytes.
      acked(bytes < 0x1p62 ? static_cast<Bytes>(bytes + 0.5) : 0),
      bdp_cap(kQueueHeadroom * rate * rtt / 8.0) {}

TcpConnection::TcpConnection(TcpConfig config, std::string label)
    : config_(config),
      label_(std::move(label)),
      cwnd_(kInitialCwnd),
      ssthresh_(std::numeric_limits<double>::infinity()) {
  VODX_ASSERT(config_.rtt > 0, "rtt must be positive");
}

void TcpConnection::set_observer(obs::Observer* observer) {
  obs_ = observer;
  if (obs_ == nullptr) {
    handshakes_metric_ = idle_restarts_metric_ = transfers_metric_ = nullptr;
    goodput_metric_ = nullptr;
    return;
  }
  obs_track_ = obs_->trace.track("tcp " + label_);
  handshakes_metric_ = &obs_->metrics.counter("tcp.handshakes");
  idle_restarts_metric_ = &obs_->metrics.counter("tcp.idle_restarts");
  transfers_metric_ = &obs_->metrics.counter("tcp.transfers");
  goodput_metric_ = &obs_->metrics.histogram(
      "tcp.goodput_mbps", {0.25, 0.5, 1, 2, 4, 8, 16, 32, 64});
}

void TcpConnection::start_transfer(Seconds now, Bytes bytes,
                                   CompletionFn on_complete,
                                   Seconds extra_wait) {
  VODX_ASSERT(!busy(), "transfer already in flight on " + label_);
  VODX_ASSERT(bytes > 0, "transfer needs payload");
  if (link_ != nullptr) link_->poke();
  transfer_size_ = bytes;
  transfer_remaining_ = static_cast<double>(bytes);
  transfer_delivered_ = 0;
  on_complete_ = std::move(on_complete);
  transfer_started_ = now;
  transfer_restart_ = false;
  transfer_extra_wait_ = extra_wait;
  transfer_first_byte_ = -1;
  sender_limited_s_ = 0;
  link_limited_s_ = 0;
  const bool reused = transfer_count_ > 0;
  ++transfer_count_;
  if (transfers_metric_ != nullptr) transfers_metric_->add();
  const bool tracing = obs::trace_on(obs_, obs::Category::kTcp);
  if (tracing) {
    obs_->trace.begin(now, obs::Category::kTcp, "tcp.transfer", obs_track_,
                      {obs::Field::n("bytes", static_cast<double>(bytes))});
  }

  if (phase_ == Phase::kClosed) {
    cwnd_ = kInitialCwnd;
    ssthresh_ = std::numeric_limits<double>::infinity();
    phase_ = Phase::kHandshake;
    wait_remaining_ = config_.rtt * kHandshakeRtts + extra_wait;
    // A handshake on a connection that already carried a transfer is the
    // paper's non-persistent pathology (or a post-reset reconnect): the cwnd
    // ramp is being re-paid, unlike the unavoidable cold-start handshake.
    transfer_restart_ = reused;
    if (handshakes_metric_ != nullptr) handshakes_metric_->add();
    if (tracing) {
      obs_->trace.instant(now, obs::Category::kTcp, "tcp.handshake",
                          obs_track_,
                          {obs::Field::n("rtts", kHandshakeRtts),
                           obs::Field::n("restart", reused ? 1 : 0)});
    }
    return;
  }

  // Reusing a persistent connection after a long idle period restarts slow
  // start (the congestion state is stale).
  if (now - idle_since_ > kIdleRestartAfter) {
    cwnd_ = kInitialCwnd;
    ssthresh_ = std::numeric_limits<double>::infinity();
    transfer_restart_ = true;
    if (idle_restarts_metric_ != nullptr) idle_restarts_metric_->add();
    if (tracing) {
      obs_->trace.instant(now, obs::Category::kTcp, "tcp.idle_restart",
                          obs_track_,
                          {obs::Field::n("idle_s", now - idle_since_)});
    }
  }
  phase_ = Phase::kRequestWait;
  wait_remaining_ = config_.rtt + extra_wait;
}

Seconds TcpConnection::transfer_wait() const {
  if (transfer_first_byte_ < 0) return -1;
  return transfer_first_byte_ - transfer_started_;
}

// The marker fields every tcp.transfer end event carries; vodx::diag turns
// these into blame spans without replaying the connection state machine.
std::vector<obs::Field> TcpConnection::transfer_end_fields(
    Bytes delivered, bool aborted) const {
  std::vector<obs::Field> fields = {
      obs::Field::n("delivered", static_cast<double>(delivered)),
      obs::Field::n("wait_s", transfer_wait()),
      obs::Field::n("extra_wait_s", transfer_extra_wait_),
      obs::Field::n("restart", transfer_restart_ ? 1 : 0),
      obs::Field::n("sender_limited_s", sender_limited_s_),
      obs::Field::n("link_limited_s", link_limited_s_)};
  if (aborted) fields.push_back(obs::Field::n("aborted", 1));
  return fields;
}

void TcpConnection::close() {
  if (busy()) {
    abort_transfer();
    return;
  }
  phase_ = Phase::kClosed;
}

void TcpConnection::abort_transfer() {
  if (!busy()) return;
  if (link_ != nullptr) link_->poke();
  if (obs::trace_on(obs_, obs::Category::kTcp)) {
    obs_->trace.end(obs_->trace.now(), obs::Category::kTcp, "tcp.transfer",
                    obs_track_,
                    transfer_end_fields(transfer_delivered_, true));
  }
  transfer_size_ = 0;
  transfer_remaining_ = 0;
  on_complete_ = nullptr;
  phase_ = Phase::kClosed;
}

double TcpConnection::ticks_before_streaming(Seconds wait, Seconds dt) {
  // advance() ends a wait once wait_remaining_ <= 1e-12, and a handshake
  // hands over to one request RTT (wait_left() adds it). The 1e-6-tick
  // margin absorbs the rounding of the per-tick subtractions, so the bound
  // errs early.
  return std::ceil((wait - 1e-12) / dt - 1e-6) - 1;
}

void TcpConnection::enter_streaming(Seconds now) {
  phase_ = Phase::kStreaming;
  wait_remaining_ = 0;
  transfer_first_byte_ = now;
}

bool TcpConnection::coast(Seconds now, Seconds dt, std::uint64_t ticks,
                          Bps limit, SpanReplayCounts& counts) {
  if (phase_ == Phase::kHandshake || phase_ == Phase::kRequestWait) {
    // advance() subtracts dt per tick and hands over once the wait falls to
    // 1e-12; a wait still above that after the span handed over on no tick.
    // A wait half a tick short of the span cannot be.
    if (wait_remaining_ < (static_cast<double>(ticks) - 0.5) * dt) {
      return false;
    }
    const Seconds wait = repeat_add(wait_remaining_, -dt, ticks);
    if (!(wait > 1e-12)) return false;
    wait_remaining_ = wait;
    counts.waiting += ticks;
    return true;
  }
  // Saturated on every tick: granted the cap, so each tick delivers the same
  // bytes and acks the same count. Demand grows with cwnd, and cwnd under
  // saturation only grows or clamps to `clamped`, so saturation at the first
  // cwnd and at `clamped` is saturation throughout.
  const auto saturated_at = [&](Bytes cwnd) {
    return limit + 1e-6 < static_cast<double>(cwnd) * 8.0 / config_.rtt;
  };
  if (phase_ != Phase::kStreaming || limit < 0 || !saturated_at(cwnd_)) {
    return false;
  }
  const double delivered = limit * dt / 8.0;
  const double cap = kQueueHeadroom * limit * config_.rtt / 8.0;
  // A tick that takes more than one byte (plus the rounding of a count
  // below 2^30) off the remainder delivers a whole byte: then the transfer
  // notes its tally on every tick of the span. Under 2^40 bytes, the cap
  // and the acks keep coast_cwnd's integers far from overflow.
  if (!(delivered >= 1 + 0x1p-20) || !(delivered < 0x1p40) ||
      !(transfer_remaining_ < 0x1p30) || !(cap < 0x1p40)) {
    return false;
  }
  const Bytes clamped = std::max(kInitialCwnd, static_cast<Bytes>(cap));
  if (!saturated_at(clamped)) return false;
  // The remainder only falls; above the completion threshold at the end, it
  // completed on no tick. A cwnd sample due by `now` needs its tick.
  const double remaining = repeat_add(transfer_remaining_, -delivered, ticks);
  if (!(remaining > 1e-9) ||
      (samples_cwnd() && now - last_cwnd_emit_ >= config_.rtt)) {
    return false;
  }
  link_limited_s_ = repeat_add(link_limited_s_, dt, ticks);
  transfer_remaining_ = remaining;
  // The whole-byte counts telescope to the final remainder.
  const Bytes whole =
      transfer_size_ - static_cast<Bytes>(transfer_remaining_ + 0.5);
  lifetime_delivered_ += whole - transfer_delivered_;
  transfer_delivered_ = whole;
  if (tally_ != nullptr) tally_->note_span(now, ticks);
  coast_cwnd(static_cast<Bytes>(delivered + 0.5), cap, clamped, ticks,
             counts);
  return true;
}

void TcpConnection::coast_cwnd(Bytes acked, double cap, Bytes clamped,
                               std::uint64_t ticks,
                               SpanReplayCounts& counts) {
  // cwnd <= cap as doubles iff cwnd <= cap_floor (cap < 2^40).
  const Bytes cap_floor = static_cast<Bytes>(cap);
  const Bytes acked_mss = kMss * acked;
  std::uint64_t left = ticks;
  while (left > 0) {
    const double cwnd = static_cast<double>(cwnd_);
    if (cwnd > cap) {
      if (cwnd_ == clamped && ssthresh_ == cwnd) {
        // IW above the cap: every clamp lands where it started.
        counts.fixed_point += left;
        return;
      }
      cwnd_ = clamped;
      ssthresh_ = static_cast<double>(clamped);
      --left;
      ++counts.climb;
      continue;
    }
    Bytes step;
    Bytes top = cap_floor;  // the last cwnd the step applies to
    if (cwnd < ssthresh_) {
      // Slow start, up to ssthresh.
      step = acked;
      if (std::isfinite(ssthresh_)) {
        top = std::min(top, static_cast<Bytes>(std::ceil(ssthresh_)) - 1);
      }
    } else {
      const Bytes quotient = acked_mss / cwnd_;
      step = std::max<Bytes>(1, quotient);
      if (cwnd_ == clamped && ssthresh_ == cwnd && cwnd_ + step > cap_floor) {
        // One CA step from the clamp overshoots the cap and the next tick
        // clamps back: cwnd follows the parity of the ticks left.
        if (left % 2 != 0) cwnd_ += step;
        counts.two_cycle += left;
        return;
      }
      // Congestion avoidance keeps its step while kMss·acked/cwnd does.
      if (quotient >= 1) top = std::min(top, acked_mss / quotient);
    }
    const std::uint64_t run = std::min<std::uint64_t>(
        left, static_cast<std::uint64_t>((top - cwnd_) / step) + 1);
    cwnd_ += static_cast<Bytes>(run) * step;
    left -= run;
    counts.climb += run;
  }
}

void TcpConnection::advance(Seconds now, Seconds dt, Bps granted,
                            bool saturated) {
  switch (phase_) {
    case Phase::kClosed:
    case Phase::kIdle:
      return;
    case Phase::kHandshake:
      wait_remaining_ -= dt;
      if (wait_remaining_ <= 1e-12) {
        phase_ = Phase::kRequestWait;
        wait_remaining_ += config_.rtt;
      }
      return;
    case Phase::kRequestWait:
      wait_remaining_ -= dt;
      if (wait_remaining_ <= 1e-12) enter_streaming(now);
      return;
    case Phase::kStreaming:
      stream(now, dt, TickGrant(granted, dt, config_.rtt), saturated);
      return;
  }
}

void TcpConnection::sample_cwnd(Seconds now) {
  // Sampled at RTT granularity: cwnd only changes meaningfully per-RTT, and
  // per-tick emission would swamp the ring.
  obs_->trace.counter(now, obs::Category::kTcp, "tcp.cwnd_kb", obs_track_,
                      static_cast<double>(cwnd_) / 1e3);
  last_cwnd_emit_ = now;
}

void TcpConnection::complete(Seconds now) {
  transfer_delivered_ = transfer_size_;
  phase_ = config_.persistent ? Phase::kIdle : Phase::kClosed;
  if (link_ != nullptr) ++link_->completions_;
  idle_since_ = now;
  if (goodput_metric_ != nullptr && now > transfer_started_) {
    goodput_metric_->record(rate_of(transfer_size_, now - transfer_started_) /
                            1e6);
  }
  if (obs::trace_on(obs_, obs::Category::kTcp)) {
    // End the span before the callback: the HTTP layer closes its own
    // request span (and may start a new transfer) inside `done`.
    obs_->trace.end(now, obs::Category::kTcp, "tcp.transfer", obs_track_,
                    transfer_end_fields(transfer_size_, false));
  }
  // Move the callback out first: it may immediately start a new transfer on
  // this same connection.
  CompletionFn done = std::move(on_complete_);
  on_complete_ = nullptr;
  if (done) done();
}

}  // namespace vodx::net
