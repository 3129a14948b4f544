#include "net/simulator.h"

#include <algorithm>

#include "common/error.h"
#include "common/strings.h"
#include "obs/profiler.h"

namespace vodx::net {

Simulator::Simulator(Seconds tick) : tick_(tick) {
  VODX_ASSERT(tick > 0, "tick must be positive");
}

Simulator::Simulator(const SimSettings& settings) : Simulator(kTick) {
  core_ = settings.sim_core;
  wall_budget_ = settings.wall_budget;
  max_events_per_instant_ = settings.max_events_per_instant;
}

void Simulator::set_observer(obs::Observer* observer) {
  obs_ = observer;
  if (obs_ == nullptr) {
    ticks_metric_ = fired_metric_ = scheduled_metric_ = cancelled_metric_ =
        nullptr;
    return;
  }
  obs_->trace.set_clock([this] { return now_; });
  ticks_metric_ = &obs_->metrics.counter("sim.ticks");
  fired_metric_ = &obs_->metrics.counter("sim.events_fired");
  scheduled_metric_ = &obs_->metrics.counter("sim.events_scheduled");
  cancelled_metric_ = &obs_->metrics.counter("sim.events_cancelled");
}

std::uint32_t Simulator::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::release_slot(std::uint32_t slot) {
  slots_[slot].fn = nullptr;  // drop the capture eagerly
  slots_[slot].id = 0;
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

std::uint64_t Simulator::schedule(Seconds delay, std::function<void()> fn) {
  VODX_ASSERT(delay >= 0, "cannot schedule in the past");
  const std::uint64_t id = next_id_++;
  const std::uint32_t slot = acquire_slot();
  slots_[slot].fn = std::move(fn);
  slots_[slot].id = id;
  queue_.push(QueueEntry{now_ + delay, id, slot});
  if (scheduled_metric_ != nullptr) scheduled_metric_->add();
  return id;
}

void Simulator::cancel(std::uint64_t id) {
  cancelled_.push_back(id);
  if (cancelled_metric_ != nullptr) cancelled_metric_->add();
}

void Simulator::add_tick_client(TickClient* client) {
  VODX_ASSERT(client != nullptr, "null tick client");
  clients_.push_back(client);
}

void Simulator::remove_tick_client(TickClient* client) {
  auto it = std::find(clients_.begin(), clients_.end(), client);
  if (it == clients_.end()) return;
  *it = nullptr;
  has_tombstones_ = true;
}

void Simulator::fire_due_events() {
  std::uint64_t fired_this_instant = 0;
  while (!queue_.empty() && queue_.top().due <= now_ + 1e-12) {
    const QueueEntry entry = queue_.top();
    queue_.pop();
    auto it = std::find(cancelled_.begin(), cancelled_.end(), entry.id);
    if (it != cancelled_.end()) {
      cancelled_.erase(it);
      release_slot(entry.slot);
      continue;
    }
    if (fired_metric_ != nullptr) fired_metric_->add();
    if (max_events_per_instant_ > 0 &&
        ++fired_this_instant > max_events_per_instant_) {
      release_slot(entry.slot);
      throw WatchdogError(format(
          "%llu events fired at t=%.3f s without time advancing "
          "(limit %llu) — zero-delay event livelock",
          static_cast<unsigned long long>(fired_this_instant), now_,
          static_cast<unsigned long long>(max_events_per_instant_)));
    }
    // Move the callable out before firing: the handler may schedule new
    // events, which can recycle this very slot.
    std::function<void()> fn = std::move(slots_[entry.slot].fn);
    release_slot(entry.slot);
    fn();
  }
}

Seconds Simulator::earliest_wake() {
  // A cancelled event still in the heap reports its (dead) due time: the
  // skip just stops early and the tick that pops it is a cheap no-op.
  Seconds wake = queue_.empty() ? TickClient::kNeverWakes : queue_.top().due;
  for (TickClient* client : clients_) {
    if (client == nullptr) continue;
    wake = std::min(wake, client->next_wake(now_));
    if (wake <= now_) break;  // already dense; no point asking the rest
  }
  return wake;
}

void Simulator::run_until(Seconds end) {
  VODX_PROFILE_ZONE("sim.run");
  // The wall clock is consulted only when a budget is armed, and only to
  // abort — it never influences the simulated timeline, so watchdog-free
  // runs remain bit-for-bit deterministic.
  const auto started = wall_budget_ > 0
                           ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  const bool can_skip = core_ == SimCore::kEvent;
  int steps_since_check = 0;
  while (now_ + tick_ <= end + 1e-12) {
    if (has_tombstones_) {
      // Between ticks no client loop is open, so the vector may shift.
      clients_.erase(std::remove(clients_.begin(), clients_.end(), nullptr),
                     clients_.end());
      has_tombstones_ = false;
    }
    if (can_skip) {
      // Skip every grid tick that provably precedes the next observable
      // instant. The 1e-9 slack matches the loosest consumer epsilon (the
      // player's kEps): a wake within slack of a tick keeps that tick
      // executing, so conservative wakes only ever cost a no-op tick,
      // never miss one.
      const Seconds wake = earliest_wake();
      std::uint64_t skipped = 0;
      for (;;) {
        const Seconds next_tick = now_ + tick_;
        if (next_tick > end + 1e-12) break;
        if (wake <= next_tick + 1e-9) break;
        now_ = next_tick;  // the exact recurrence executed ticks use
        ++skipped;
      }
      if (skipped > 0) {
        ticks_covered_ += skipped;
        if (ticks_metric_ != nullptr) {
          ticks_metric_->add(static_cast<std::int64_t>(skipped));
        }
        // Indexed with a snapshotted bound: a client registered from inside
        // a callback (a population arrival spawning a session) must not
        // invalidate this traversal, and first participates next tick. A
        // client deregistered mid-loop leaves a tombstone, skipped here.
        const std::size_t n_clients = clients_.size();
        for (std::size_t i = 0; i < n_clients; ++i) {
          if (clients_[i] != nullptr) {
            clients_[i]->fast_forward(now_, tick_, skipped);
          }
        }
        if (now_ + tick_ > end + 1e-12) break;  // window fully consumed
      }
    }
    now_ += tick_;
    ++ticks_covered_;
    ++ticks_executed_;
    if (ticks_metric_ != nullptr) ticks_metric_->add();
    fire_due_events();
    const std::size_t n_clients = clients_.size();
    std::uint64_t ticked = 0;
    for (std::size_t i = 0; i < n_clients; ++i) {
      if (clients_[i] == nullptr) continue;
      clients_[i]->tick(now_, tick_);
      ++ticked;
    }
    client_ticks_ += ticked;
    if (wall_budget_ > 0 && ++steps_since_check >= 64) {
      steps_since_check = 0;
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - started;
      if (elapsed.count() > wall_budget_) {
        throw WatchdogError(
            format("wall-clock budget of %.2f s exhausted at sim t=%.2f s",
                   wall_budget_, now_));
      }
    }
  }
}

}  // namespace vodx::net
