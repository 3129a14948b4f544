#include "net/link.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/repeat_add.h"
#include "obs/profiler.h"

namespace vodx::net {

void max_min_shares(const std::vector<Bps>& demands, Bps capacity,
                    std::vector<Bps>& grants,
                    std::vector<std::size_t>& active_scratch) {
  grants.assign(demands.size(), 0.0);
  std::vector<std::size_t>& active = active_scratch;
  active.clear();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i] > 0) active.push_back(i);
  }
  Bps remaining = capacity;
  while (!active.empty() && remaining > 0) {
    Bps share = remaining / static_cast<double>(active.size());
    // Satisfy every flow whose demand fits under the current equal share;
    // keep the rest, in order, for the next round. The in-place compaction
    // performs the identical float operations in the identical order as a
    // remove-as-you-iterate pass, in O(active) instead of O(active²).
    std::size_t kept = 0;
    for (std::size_t j = 0; j < active.size(); ++j) {
      const std::size_t i = active[j];
      if (demands[i] <= share) {
        grants[i] = demands[i];
        remaining -= demands[i];
      } else {
        active[kept++] = i;
      }
    }
    if (kept == active.size()) {
      // Every remaining flow wants more than an equal share: split evenly.
      for (std::size_t i : active) grants[i] = share;
      remaining = 0;
      break;
    }
    active.resize(kept);
  }
}

Link::Link(Simulator& sim, BandwidthTrace trace, Seconds rtt)
    : sim_(sim), trace_(std::move(trace)), rtt_(rtt), synced_at_(sim.now()) {
  sim_.add_tick_client(this);
}

void Link::set_observer(obs::Observer* observer) {
  obs_ = observer;
  last_capacity_emitted_ = -1;
  last_active_emitted_ = -1;
  if (obs_ != nullptr) obs_track_ = obs_->trace.track("link");
}

void Link::attach(TcpConnection* connection) {
  VODX_ASSERT(connection != nullptr, "null connection");
  VODX_ASSERT(std::find(connections_.begin(), connections_.end(), connection) ==
                  connections_.end(),
              "connection attached twice");
  connections_.push_back(connection);
  connection->link_ = this;
}

void Link::detach(TcpConnection* connection) {
  auto it = std::find(connections_.begin(), connections_.end(), connection);
  if (it == connections_.end()) return;
  // An idle or closed connection's counters are current: only a busy one
  // can be mid-span.
  if (connection->busy()) poke();
  delivered_by_detached_ += connection->lifetime_delivered();
  connection->link_ = nullptr;
  connections_.erase(it);
  std::erase(span_, connection);  // the span never names a detached flow
  ++detach_epoch_;
}

Bytes Link::total_delivered() {
  sim_.sync(this);
  Bytes total = delivered_by_detached_;
  for (const TcpConnection* c : connections_) total += c->lifetime_delivered();
  return total;
}

Bps Link::capacity_at(Seconds now) {
  if (now >= piece_end_ - 1e-9) {
    piece_capacity_ = trace_.at(now);
    piece_end_ = trace_.next_change_after(now);
  }
  return piece_capacity_;
}

Bps Link::allocate(const std::vector<Bps>& demands, Bps capacity,
                   std::vector<Bps>& grants) {
  std::size_t active = 0;
  Bps lowest = std::numeric_limits<double>::infinity();
  Bps highest = 0;
  for (const Bps demand : demands) {
    if (demand > 0) {
      ++active;
      lowest = std::min(lowest, demand);
      highest = std::max(highest, demand);
    }
  }
  if (active == 0 || !(capacity > 0)) {
    grants.assign(demands.size(), 0.0);
    return 0;
  }
  // max_min_shares' first round: the same share from the same division.
  // Every active flow above it keeps it; every flow at or below it is
  // satisfied and the filling stops.
  const Bps share = capacity / static_cast<double>(active);
  if (lowest > share) {
    grants.resize(demands.size());
    for (std::size_t i = 0; i < demands.size(); ++i) {
      grants[i] = demands[i] > 0 ? share : 0;
    }
    return share;
  }
  if (highest <= share) {
    grants.assign(demands.begin(), demands.end());
  } else {
    max_min_shares(demands, capacity, grants, scratch_active_);
  }
  return 0;
}

void Link::tick(Seconds now, Seconds dt) {
  VODX_PROFILE_ZONE_IF("sim.link", sim_.profiled_tick());
  // Snapshot: completion callbacks inside advance() may attach/detach
  // connections; newly attached ones start participating next tick.
  scratch_snapshot_.assign(connections_.begin(), connections_.end());
  scratch_demands_.resize(scratch_snapshot_.size());
  for (std::size_t i = 0; i < scratch_snapshot_.size(); ++i) {
    scratch_demands_[i] = scratch_snapshot_[i]->demand();
  }
  const Bps capacity = capacity_at(now);
  const Bps equal_share =
      allocate(scratch_demands_, capacity, scratch_grants_);

  if (obs::trace_on(obs_, obs::Category::kLink)) {
    // Counter tracks are sampled on change, not per tick: a 600 s session
    // over a 1 Hz bandwidth trace emits ~600 capacity points, not 60000.
    if (capacity != last_capacity_emitted_) {
      obs_->trace.counter(now, obs::Category::kLink, "link.capacity_mbps",
                          obs_track_, capacity / 1e6);
      last_capacity_emitted_ = capacity;
    }
    int active = 0;
    for (Bps demand : scratch_demands_) {
      if (demand > 0) ++active;
    }
    if (active != last_active_emitted_) {
      obs_->trace.counter(now, obs::Category::kLink, "link.active_conns",
                          obs_track_, active);
      last_active_emitted_ = active;
    }
  }

  // Advance every connection and plan the next span in the same pass. The
  // allocation stays what it is while no connection starts or stops
  // streaming and the trace holds, so the link can sleep until the first
  // tick at which a transfer could complete or a wait could end.
  span_.clear();
  bool steady = true;  // every connection streams now iff it did before
  double nearest_end = std::numeric_limits<double>::infinity();  // bytes
  double quiet = std::numeric_limits<double>::infinity();  // ticks
  Seconds sample_at = kNeverWakes;  // a connection's next cwnd sample
  double clamp_margin = std::numeric_limits<double>::infinity();
  int streamers = 0;
  const std::uint64_t epoch = detach_epoch_;
  const std::uint64_t completions = completions_;
  for (std::size_t i = 0; i < scratch_snapshot_.size(); ++i) {
    // A callback earlier in this loop may have detached this connection;
    // the liveness scan only runs once a detach has actually happened
    // (population-scale ticks would otherwise go quadratic on it).
    if (detach_epoch_ != epoch &&
        std::find(connections_.begin(), connections_.end(),
                  scratch_snapshot_[i]) == connections_.end()) {
      continue;
    }
    TcpConnection* c = scratch_snapshot_[i];
    if (!c->busy()) continue;  // advance() leaves it as it is
    const bool saturated = scratch_grants_[i] + 1e-6 < scratch_demands_[i];
    c->advance(now, dt, scratch_grants_[i], saturated);
    if (!c->busy()) continue;
    span_.push_back(c);
    const bool streaming = c->phase_ == TcpConnection::Phase::kStreaming;
    if ((scratch_demands_[i] > 0) != streaming) {
      steady = false;
    } else if (streaming) {
      ++streamers;
      nearest_end = std::min(nearest_end, c->transfer_remaining_);
      clamp_margin = std::min(
          clamp_margin, (kQueueHeadroom - 1) * c->config_.rtt);
      if (c->samples_cwnd()) {
        sample_at = std::min(sample_at, c->last_cwnd_emit_ + c->config_.rtt);
      }
    } else {
      quiet = std::min(quiet, c->ticks_before_streaming(dt));
    }
  }
  synced_at_ = now;
  span_capacity_ = capacity;
  if (span_.empty()) {
    span_wake_ = kNeverWakes;
    return;
  }
  if (!steady || completions_ != completions || detach_epoch_ != epoch) {
    span_wake_ = now;
    return;
  }
  // An equal split holds for the whole span: a saturated cwnd is clamped
  // to kQueueHeadroom x the share's BDP, rounded down to a byte, so its
  // demand stays above the share while (headroom - 1) x share x rtt clears
  // the rounding's 8 bits with a 2x margin. A lone streamer gets its demand
  // up to the capacity, whichever side of it the demand lies.
  if (equal_share > 0 && equal_share * clamp_margin > 16) {
    span_limit_ = equal_share;
  } else if (streamers <= 1) {
    span_limit_ = capacity;
  } else {
    span_limit_ = -1;
  }
  const double bytes_per_tick =
      (span_limit_ >= 0 ? span_limit_ : capacity) * dt / 8.0;
  if (bytes_per_tick > 0) {
    // The last byte completes a transfer; one byte of margin absorbs the
    // rounding of the per-tick subtractions.
    quiet = std::min(quiet, std::floor((nearest_end - 1) / bytes_per_tick));
  }
  // Sleep through `quiet` ticks and wake on the next one; stop before a
  // cwnd sample and before the trace steps.
  span_wake_ =
      std::min({now + (quiet + 0.5) * dt, sample_at - dt / 2, piece_end_});
}

Seconds Link::next_wake(Seconds now) {
  if (obs::trace_on(obs_, obs::Category::kLink)) {
    // Pending on-change emissions must land on the very next tick; after
    // that the tracks only change at span ends and bandwidth-trace steps.
    if (capacity_at(now) != last_capacity_emitted_) return now;
    if (span_.empty()) {
      if (last_active_emitted_ != 0) return now;
      return piece_end_;
    }
  }
  return span_wake_;
}

void Link::fast_forward(Seconds now, Seconds dt, std::uint64_t ticks) {
  if (span_.empty()) {
    // Every connection idle or closed, where advance() does nothing.
    synced_at_ = now;
    return;
  }
  const std::uint64_t completions = completions_;
  const std::uint64_t epoch = detach_epoch_;
  // Closed forms first, connection by connection; the rest replay tick by
  // tick, tick-major, so each tick's deliveries note a tally once and a
  // wait that ends stamps its grid time, and each retries its closed form
  // over the ticks still left (a ramp that saturates, a handshake that has
  // handed over). A connection that coasts credits its DeliveryTally with
  // every tick it covers, all later than any tick noted so far, so the
  // per-tick notes of a shared tally count nothing twice.
  replayed_.assign(span_.begin(), span_.end());
  bool coasted = false;
  Seconds t = synced_at_;
  std::uint64_t left = ticks;
  for (;;) {
    if (left >= kCoastFrom) {
      std::size_t kept = 0;
      for (TcpConnection* c : replayed_) {
        if (c->coast(now, dt, left, span_limit_, counts_)) {
          coasted = true;
        } else {
          replayed_[kept++] = c;
        }
      }
      replayed_.resize(kept);
    }
    if (replayed_.empty() || left == 0) break;
    t += dt;  // the simulator's own recurrence
    --left;
    if (coasted) {
      for (const TcpConnection* c : replayed_) {
        if (c->tally_ != nullptr && c->tally_->last_at == now) {
          ++counts_.shared_tally;
        }
      }
    }
    replay_tick(t, dt);
    counts_.per_tick += replayed_.size();
  }
  t = repeat_add(t, dt, left);
  VODX_ASSERT(t == now, "link replay left the simulator's grid");
  VODX_ASSERT(completions_ == completions && detach_epoch_ == epoch,
              "a transfer ended inside a span the link planned to sleep");
  synced_at_ = now;
}

void Link::replay_tick(Seconds now, Seconds dt) {
  if (span_limit_ >= 0) {
    for (TcpConnection* c : replayed_) {
      const Bps demand = c->demand();
      const Bps grant = std::min(demand, span_limit_);
      c->advance(now, dt, grant, grant + 1e-6 < demand);
    }
    return;
  }
  // Only waits coast under a per-tick allocation, and a flow without demand
  // changes no other flow's grant.
  scratch_demands_.resize(replayed_.size());
  for (std::size_t i = 0; i < replayed_.size(); ++i) {
    scratch_demands_[i] = replayed_[i]->demand();
  }
  allocate(scratch_demands_, span_capacity_, scratch_grants_);
  for (std::size_t i = 0; i < replayed_.size(); ++i) {
    replayed_[i]->advance(now, dt, scratch_grants_[i],
                          scratch_grants_[i] + 1e-6 < scratch_demands_[i]);
  }
}

}  // namespace vodx::net
