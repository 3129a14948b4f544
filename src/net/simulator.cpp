#include "net/simulator.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/repeat_add.h"
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

void Simulator::set_core(SimCore core) {
  if (core == core_) return;
  core_ = core;
  // The fixed core keeps no wake heap: on the way back, every client names
  // its wake afresh.
  fresh_.insert(fresh_.end(), order_.begin(), order_.end());
}

void Simulator::add_tick_client(TickClient* client) {
  VODX_ASSERT(client != nullptr, "null tick client");
  VODX_ASSERT(client->sim_slot_ == TickClient::kUnregistered,
              "tick client registered twice");
  std::uint32_t slot;
  if (!free_clients_.empty()) {
    slot = free_clients_.back();
    free_clients_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(clients_.size());
    clients_.emplace_back();
  }
  ClientSlot& s = clients_[slot];
  s.client = client;
  s.seq = next_seq_++;
  // The tick in progress (or the last one covered) predates the client.
  s.synced = counters_.ticks_covered;
  s.wake = TickClient::kNeverWakes;
  s.queued = false;
  client->sim_slot_ = slot;
  order_.push_back(slot);
  fresh_.push_back(slot);
}

void Simulator::remove_tick_client(TickClient* client) {
  if (client == nullptr || client->sim_slot_ == TickClient::kUnregistered) {
    return;
  }
  ClientSlot& s = clients_[client->sim_slot_];
  if (s.client != client) return;
  s.client = nullptr;
  ++s.gen;  // its wake-heap entry goes stale; a queued run is skipped
  client->sim_slot_ = TickClient::kUnregistered;
  has_departed_ = true;
}

void Simulator::poke(TickClient* client) {
  if (core_ == SimCore::kFixedTickReference ||
      client->sim_slot_ == TickClient::kUnregistered) {
    return;
  }
  const std::uint32_t slot = client->sim_slot_;
  if (clients_[slot].seq <= passed_through_) {
    // The sweep is past this client's slot: it has lived through the
    // current tick and runs on the next one.
    catch_up(slot, counters_.ticks_covered);
    rewake(slot, now_ + tick_);
    return;
  }
  // Mid-tick, ahead of the sweep: it has lived through the previous tick
  // and runs in this one.
  catch_up(slot, counters_.ticks_covered - 1);
  ClientSlot& s = clients_[slot];
  if (s.queued) return;
  s.queued = true;
  s.wake = TickClient::kNeverWakes;
  ++s.gen;
  run_queue_.push(RunEntry{s.seq, slot});
}

void Simulator::sync(TickClient* client) {
  if (core_ == SimCore::kFixedTickReference ||
      client->sim_slot_ == TickClient::kUnregistered) {
    return;
  }
  const std::uint32_t slot = client->sim_slot_;
  catch_up(slot, clients_[slot].seq <= passed_through_
                     ? counters_.ticks_covered
                     : counters_.ticks_covered - 1);
}

void Simulator::rewake(std::uint32_t slot, Seconds wake) {
  ClientSlot& s = clients_[slot];
  if (!(wake < s.wake)) return;
  s.wake = wake;
  ++s.gen;
  wake_heap_.push(WakeEntry{wake, s.seq, slot, s.gen});
}

void Simulator::catch_up(std::uint32_t slot, std::uint64_t target) {
  ClientSlot& s = clients_[slot];
  if (target <= s.synced) return;
  const std::uint64_t slept = target - s.synced;
  s.synced = target;
  ++counters_.fast_forwards;
  s.client->fast_forward(
      target == counters_.ticks_covered ? now_ : prev_now_, tick_, slept);
}

void Simulator::settle_clients() {
  if (core_ == SimCore::kEvent) {
    for (std::uint32_t slot : fresh_) {
      ClientSlot& s = clients_[slot];
      if (s.client != nullptr) rewake(slot, s.client->next_wake(now_));
    }
  }
  fresh_.clear();
  if (!has_departed_) return;
  // Order-keeping removal: the survivors keep their registration order.
  std::erase_if(order_, [&](std::uint32_t slot) {
    if (clients_[slot].client != nullptr) return false;
    free_clients_.push_back(slot);
    return true;
  });
  has_departed_ = false;
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
    ++counters_.events_fired;
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

void Simulator::run_fixed_tick() {
  // Snapshot before events: a client registered by an event (a population
  // arrival) first runs on the next tick, as on the event core.
  const std::size_t n_clients = order_.size();
  fire_due_events();
  VODX_PROFILE_ZONE_IF("sim.clients", profiled_tick());
  for (std::size_t i = 0; i < n_clients; ++i) {
    ClientSlot& s = clients_[order_[i]];
    if (s.client == nullptr) continue;
    // Read again if the core switches back.
    s.synced = counters_.ticks_covered;
    s.client->tick(now_, tick_);
    ++counters_.client_ticks;
  }
}

void Simulator::run_due_clients() {
  passed_through_ = 0;
  fire_due_events();
  VODX_PROFILE_ZONE_IF("sim.clients", profiled_tick());
  while (!wake_heap_.empty() && wake_heap_.top().wake <= now_ + 1e-9) {
    const WakeEntry entry = wake_heap_.top();
    wake_heap_.pop();
    ClientSlot& s = clients_[entry.slot];
    if (entry.gen != s.gen) continue;  // superseded or deregistered
    s.wake = TickClient::kNeverWakes;
    ++s.gen;
    s.queued = true;
    run_queue_.push(RunEntry{s.seq, entry.slot});
  }
  // Pokes made while the queue drains add clients whose slot is still
  // ahead, so registration order holds across them.
  while (!run_queue_.empty()) {
    const RunEntry entry = run_queue_.top();
    run_queue_.pop();
    ClientSlot& s = clients_[entry.slot];
    if (s.seq != entry.seq || s.client == nullptr) continue;  // departed
    s.queued = false;
    passed_through_ = s.seq;
    catch_up(entry.slot, counters_.ticks_covered - 1);
    s.synced = counters_.ticks_covered;
    TickClient* client = s.client;
    client->tick(now_, tick_);  // may register clients: `s` can dangle
    ++counters_.client_ticks;
    if (clients_[entry.slot].client == client) {
      rewake(entry.slot, client->next_wake(now_));
    }
  }
}

std::uint64_t Simulator::skip_ticks(Seconds wake, Seconds end) {
  // A grid tick t (the exact recurrence executed ticks use) is skipped
  // while both tests below pass. Each fails for every t past the first that
  // fails it, so the skipped ticks are a prefix: a long one jumps to two
  // ticks short of its estimated end with repeat_add, and walks the rest.
  const auto skippable = [&](Seconds t) {
    return !(t > end + 1e-12) && !(wake <= t + 1e-9);
  };
  std::uint64_t skipped = 0;
  Seconds before = now_;
  Seconds at = now_;
  const double estimate =
      std::floor((std::min(end + 1e-12, wake - 1e-9) - now_) / tick_) - 2;
  if (estimate >= kJumpFrom && estimate < 0x1p52) {
    const auto jump = static_cast<std::uint64_t>(estimate);
    const Seconds jump_before = repeat_add(now_, tick_, jump - 1);
    if (skippable(jump_before + tick_)) {
      skipped = jump;
      before = jump_before;
      at = jump_before + tick_;
    }
  }
  while (skippable(at + tick_)) {
    before = at;
    at += tick_;
    ++skipped;
  }
  if (skipped > 0) {
    prev_now_ = before;
    now_ = at;
  }
  return skipped;
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
  // Between ticks every slot counts as passed, also after a throw.
  struct SweepReset {
    std::uint64_t& passed;
    ~SweepReset() { passed = kAllPassed; }
  } sweep_reset{passed_through_};
  while (now_ + tick_ <= end + 1e-12) {
    settle_clients();
    if (can_skip) {
      // Skip every grid tick that precedes the next due event or client
      // wake. The 1e-9 slack matches the loosest consumer epsilon (the
      // player's kEps): a wake within slack of a tick keeps that tick
      // executing, so conservative wakes only ever cost a no-op tick,
      // never miss one. A cancelled event still in the queue reports its
      // (dead) due time: the skip just stops early.
      while (!wake_heap_.empty() &&
             wake_heap_.top().gen != clients_[wake_heap_.top().slot].gen) {
        wake_heap_.pop();
      }
      Seconds wake = queue_.empty() ? TickClient::kNeverWakes
                                    : queue_.top().due;
      if (!wake_heap_.empty()) wake = std::min(wake, wake_heap_.top().wake);
      const std::uint64_t skipped = skip_ticks(wake, end);
      if (skipped > 0) {
        // Sleeping clients replay the span when they next run or are poked.
        // The batch is one step of the wall-budget count.
        ++steps_since_check;
        counters_.ticks_covered += skipped;
        if (ticks_metric_ != nullptr) {
          ticks_metric_->add(static_cast<std::int64_t>(skipped));
        }
        if (now_ + tick_ > end + 1e-12) break;  // window fully consumed
      }
    }
    prev_now_ = now_;
    now_ += tick_;
    ++counters_.ticks_covered;
    ++counters_.ticks_executed;
    if (ticks_metric_ != nullptr) ticks_metric_->add();
    if (can_skip) {
      run_due_clients();
    } else {
      run_fixed_tick();
    }
    passed_through_ = kAllPassed;
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
  // Every client leaves caught up to now(): readers of position-dependent
  // state see exactly what the fixed core would show them.
  for (std::uint32_t slot : order_) {
    if (clients_[slot].client != nullptr) {
      catch_up(slot, counters_.ticks_covered);
    }
  }
}

}  // namespace vodx::net
