#include "net/link.h"

#include <algorithm>

#include "common/error.h"
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
    : sim_(sim), trace_(std::move(trace)), rtt_(rtt) {
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
  delivered_by_detached_ += connection->lifetime_delivered();
  connection->link_ = nullptr;
  connections_.erase(it);
  ++detach_epoch_;
}

Bytes Link::total_delivered() const {
  Bytes total = delivered_by_detached_;
  for (const TcpConnection* c : connections_) total += c->lifetime_delivered();
  return total;
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
  const Bps capacity = trace_.at(now);
  max_min_shares(scratch_demands_, capacity, scratch_grants_,
                 scratch_active_);

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

  const std::uint64_t epoch = detach_epoch_;
  for (std::size_t i = 0; i < scratch_snapshot_.size(); ++i) {
    // A callback earlier in this loop may have detached this connection;
    // the liveness scan only runs once a detach has actually happened
    // (population-scale ticks would otherwise go quadratic on it).
    if (detach_epoch_ != epoch &&
        std::find(connections_.begin(), connections_.end(),
                  scratch_snapshot_[i]) == connections_.end()) {
      continue;
    }
    const bool saturated = scratch_grants_[i] + 1e-6 < scratch_demands_[i];
    scratch_snapshot_[i]->advance(now, dt, scratch_grants_[i], saturated);
  }
}

Seconds Link::next_wake(Seconds now) {
  // Any in-flight transfer makes the fluid model integrate per tick.
  for (TcpConnection* c : connections_) {
    if (c->busy()) return now;
  }
  if (obs::trace_on(obs_, obs::Category::kLink)) {
    // Pending on-change emissions must land on the very next tick; after
    // that the tracks only change at bandwidth-trace steps.
    if (trace_.at(now) != last_capacity_emitted_) return now;
    if (last_active_emitted_ != 0) return now;
    return trace_.next_change_after(now);
  }
  return kNeverWakes;
}

}  // namespace vodx::net
