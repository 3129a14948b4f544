// Event-driven simulator core over a fixed tick grid.
//
// Simulated time lives on a 10 ms (kTick) grid: every observable
// instant is a grid point, reached by the same `now += tick` float
// recurrence the original fixed-tick loop used, so timestamps — and every
// float derived from them — are bit-identical to the historical core. What
// changed is *which* clients run on which grid ticks:
//
//   * One-shot events (schedule/cancel) live in an arena of reusable slots;
//     the priority queue orders plain {due, id, slot} records, so heap
//     operations never move a std::function and firing an event never
//     allocates. An event due at time D fires at the first executed tick T
//     with D <= T + 1e-12, FIFO among equals — exactly the old contract.
//   * Fluid components (Link, Player) register as TickClients. A client's
//     tick() is the old per-tick handler body; next_wake() names the
//     earliest instant it could next do observable work *on its own* (rate
//     change, trace bandwidth step, playback boundary, 1 Hz emission,
//     deadline); fast_forward() replays the per-tick float recurrences of
//     ticks it slept through (position += dt and friends) in one tight loop.
//   * Clients sit in a wake heap keyed by (wake, registration sequence). A
//     grid tick executes when an event is due or some client's wake falls
//     on it; every other tick is skipped with the exact += tick recurrence
//     (and still counts into ticks_covered and the sim.ticks metric). On an
//     executed tick only the clients that are due run, in registration
//     order; the rest keep sleeping.
//   * Anything that calls into a client from outside that client's own
//     tick() — an HTTP completion, a transfer start, a user action, a
//     population arrival or departure — first calls poke(client). The poked
//     client catches up: fast_forward replays the ticks it slept through,
//     up to the last tick whose registration slot the sweep has already
//     passed. It then runs at the first slot not yet passed: this tick if
//     its slot is still ahead, otherwise the next one. So a sleeping
//     client observes exactly the state the dense loop would have shown it.
//     Code that only reads a sleeping client's state calls sync(client):
//     the same catch-up, without rescheduling the client.
//   * A client leaves with remove_tick_client() (a departed population
//     session) and is never ticked, fast-forwarded or polled again. A
//     client registered mid-run first runs on the next tick (unless poked).
//   * run_until() returns with every client caught up to now().
//
// The safety rule is one-sided: a wake may be *earlier* than the client's
// real need (it runs and does nothing — what the old core did every tick),
// never later. Any uncertainty must resolve to "wake now". Between its wake
// and a poke a client must be inert apart from what fast_forward replays.
// SimCore::kFixedTickReference disables skipping and sleeping entirely: it
// ticks every client on every tick and is the retained fixed-tick reference
// implementation; the differential harness (tests/testing/differential.h)
// holds the two cores equal over the experiment grid.
//
// Nothing in the simulator consults the wall clock (except the abort-only
// wall-budget watchdog); runs are deterministic.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "obs/observer.h"

namespace vodx::net {

/// Thrown from run_until when a watchdog trips: the run is aborted mid-flight
/// and reported instead of hanging the harness (or silently looping). The
/// message names which watchdog fired and where simulated time stood.
class WatchdogError : public Error {
 public:
  explicit WatchdogError(const std::string& what)
      : Error("watchdog: " + what) {}
};

/// Which advancement strategy run_until uses. Outputs are identical in both
/// modes by contract; only wall-clock cost differs.
enum class SimCore {
  kEvent,               ///< skip provably-inert grid ticks (default)
  kFixedTickReference,  ///< execute every grid tick (legacy fixed-tick core)
};

/// The grid tick and the emulated path's round-trip time. The paper varies
/// one input between runs, the bandwidth trace, over one emulated path, so
/// every session, sweep cell, chaos cell and tower runs on these two values.
inline constexpr Seconds kTick = 0.01;
inline constexpr Seconds kRtt = 0.07;

/// The simulator settings a run can choose, declared once. Every config that
/// configures a simulation (core::SessionConfig, core::SessionFactory,
/// batch::SweepConfig, chaos::ChaosConfig, pop::PopulationConfig) inherits
/// it, so a new knob touches this struct alone and each hop copies the whole
/// slice in one statement: `next.sim_settings() = sim_settings();`.
struct SimSettings {
  /// Advancement core. Outputs are identical on both by contract; the
  /// fixed-tick reference is what the differential harness compares against
  /// (DESIGN.md §13).
  SimCore sim_core = SimCore::kEvent;
  /// Wall-clock watchdog per simulated run, in seconds (<= 0 = no budget).
  /// Abort-only: exceeding it throws WatchdogError, and a run that finishes
  /// within it is untouched.
  Seconds wall_budget = 0;
  /// Bound on events fired at one simulated instant (0 = unbounded); trips
  /// WatchdogError on zero-delay event livelock. Fully deterministic.
  std::uint64_t max_events_per_instant = 0;

  SimSettings& sim_settings() { return *this; }
  const SimSettings& sim_settings() const { return *this; }
};

/// The simulator's work counters, plain integers read without an observer.
/// Wall-clock cost drifts with the machine; these do not.
struct SimCounters {
  /// Grid ticks covered so far (executed + skipped); equal across cores.
  std::uint64_t ticks_covered = 0;
  /// Grid ticks that actually executed handlers; the skip win is
  /// ticks_covered - ticks_executed.
  std::uint64_t ticks_executed = 0;
  /// TickClient::tick calls: on the event core only due and poked clients
  /// run, on the fixed core every client runs on every tick.
  std::uint64_t client_ticks = 0;
  /// TickClient::fast_forward calls: one per catch-up of a client that
  /// slept through at least one tick (always 0 on the fixed core).
  std::uint64_t fast_forwards = 0;
  /// One-shot events fired (cancelled ones excluded); equal across cores.
  std::uint64_t events_fired = 0;
};

/// A fluid component advanced on the tick grid. tick() is the per-tick
/// body; the two extra hooks are what lets the event core let it sleep
/// without changing a single observable float.
class TickClient {
 public:
  /// Sentinel wake for a dormant client.
  static constexpr Seconds kNeverWakes =
      std::numeric_limits<double>::infinity();

  virtual ~TickClient() = default;

  /// One grid tick ending at `now` (due clients run in registration order,
  /// after due events fire).
  virtual void tick(Seconds now, Seconds dt) = 0;

  /// Earliest simulated time at which this client could next perform
  /// observable work unprompted (anything a poke brings need not be
  /// foreseen). Must err early (cheap: one no-op tick), never late (a
  /// correctness bug); return `now` when unsure and kNeverWakes when
  /// dormant. Called right after the client's own tick() (and once after
  /// registration) — never re-entered from tick().
  virtual Seconds next_wake(Seconds now) = 0;

  /// The client slept through `ticks` grid ticks of size dt ending at
  /// `now`. Replay internal per-tick float recurrences exactly as that many
  /// tick() calls would have (and nothing else — by the next_wake contract
  /// and the poke rule, the span is free of observable work).
  virtual void fast_forward(Seconds now, Seconds dt, std::uint64_t ticks) {
    (void)now;
    (void)dt;
    (void)ticks;
  }

 private:
  friend class Simulator;
  static constexpr std::uint32_t kUnregistered = 0xffffffffu;
  std::uint32_t sim_slot_ = kUnregistered;  ///< Simulator bookkeeping
};

class Simulator {
 public:
  explicit Simulator(Seconds tick = kTick);
  /// A simulator on the kTick grid configured with `settings`: the one place
  /// a config's SimSettings reach the simulator.
  explicit Simulator(const SimSettings& settings);

  Seconds now() const { return now_; }
  Seconds tick_duration() const { return tick_; }

  /// Selects the advancement core. kEvent is the default; switching to
  /// kFixedTickReference makes every subsequent grid tick execute and tick
  /// every client, reproducing the historical fixed-tick loop. Switch
  /// between run_until calls (tests do it before the first), when every
  /// client is caught up.
  void set_core(SimCore core);
  SimCore core() const { return core_; }

  /// Attaches an observability context (nullable; default off). The
  /// simulator feeds tick/event counters and stamps the sink's clock so
  /// scoped spans can close themselves at the current sim time.
  void set_observer(obs::Observer* observer);

  /// Schedules a one-shot callback `delay` seconds from now (>= 0). Returns
  /// an id usable with `cancel`. The event fires at the first executed grid
  /// tick at or after its due time (a zero delay fires on the next tick; an
  /// event scheduled from inside another event at the same instant fires
  /// within the same instant, bounded by the livelock watchdog).
  std::uint64_t schedule(Seconds delay, std::function<void()> fn);

  /// Cancels a pending event; cancelling an already-fired id is a no-op.
  void cancel(std::uint64_t id);

  /// Registers a tick client (not owned; must outlive the simulator's runs
  /// or deregister first; one simulator per client). Due clients run in
  /// registration order. A client registered mid-run first runs on the next
  /// tick, unless poked sooner; its next_wake() is first asked between
  /// ticks.
  void add_tick_client(TickClient* client);

  /// Deregisters `client`: it is never ticked, fast-forwarded or polled
  /// again. Idempotent, and a no-op for a client that was never registered.
  /// Safe from inside an event callback or another client's tick(); the
  /// remaining clients keep their relative order.
  void remove_tick_client(TickClient* client);

  /// Tells the simulator that `client` is about to be called from outside
  /// its own tick(). Call it *before* touching the client's state. The
  /// client first catches up (fast_forward over the ticks it slept through,
  /// up to the last tick whose registration slot has already been passed),
  /// then is scheduled for the first slot not yet passed: this tick if its
  /// slot is still ahead, otherwise the next one. No-op for an unregistered
  /// client and on the fixed-tick core, where no client ever lags.
  void poke(TickClient* client);

  /// Runs until simulated time reaches `end` (inclusive of events due then).
  /// Throws WatchdogError when a configured watchdog trips.
  void run_until(Seconds end);

  /// Convenience: run for `duration` more simulated seconds.
  void run_for(Seconds duration) { run_until(now_ + duration); }

  /// Replays the ticks `client` slept through, as a poke would, but leaves
  /// its wake where it was: for code that only reads the client's state
  /// (the population sampler reading the link's byte counter). No-op for an
  /// unregistered client and on the fixed-tick core.
  void sync(TickClient* client);

  /// Work counters so far.
  const SimCounters& counters() const { return counters_; }
  /// Shorthands for two counters, read by the benchmark harness.
  std::uint64_t ticks_covered() const { return counters_.ticks_covered; }
  std::uint64_t ticks_executed() const { return counters_.ticks_executed; }

  /// Executed ticks whose per-tick profiler zones (sim.clients, sim.link)
  /// are timed: one in this many. Two clock reads per zone cost as much as
  /// a whole tick of a one-session run, so every tick would distort the
  /// profile it is meant to explain.
  static constexpr std::uint64_t kProfiledTickEvery = 64;
  /// Whether the executing tick is one of those.
  bool profiled_tick() const {
    return counters_.ticks_executed % kProfiledTickEvery == 0;
  }

  // --- Watchdogs (vodx::chaos; both default off) -------------------------

  /// Wall-clock watchdog: run_until aborts with WatchdogError once the run
  /// has consumed more than `seconds` of real time (<= 0 disables). The
  /// budget covers one run_until call; it re-arms on the next. Checked at
  /// event granularity (every 64 executed steps, where a step is a tick or
  /// a skip batch), so a single pathological event handler can still
  /// overshoot — this bounds runs, it does not preempt user code.
  void set_wall_budget(Seconds seconds) { wall_budget_ = seconds; }
  Seconds wall_budget() const { return wall_budget_; }

  /// Sim-time watchdog: aborts when more than `n` events fire within one
  /// tick boundary (0 disables). Zero-delay event cascades that keep
  /// rescheduling at the same instant would otherwise spin run_until
  /// forever without simulated time ever advancing.
  void set_max_events_per_instant(std::uint64_t n) {
    max_events_per_instant_ = n;
  }
  std::uint64_t max_events_per_instant() const {
    return max_events_per_instant_;
  }

 private:
  /// Arena slot: the callable never moves once scheduled, and slots are
  /// recycled through a free list, so steady-state scheduling does not
  /// allocate (beyond what the callable's own capture needs).
  struct EventSlot {
    std::function<void()> fn;
    std::uint64_t id = 0;  ///< 0 = free
    std::uint32_t next_free = kNoSlot;
  };

  /// What the heap actually orders: 24 plain bytes, trivially movable.
  struct QueueEntry {
    Seconds due;
    std::uint64_t id;
    std::uint32_t slot;
    bool operator>(const QueueEntry& other) const {
      if (due != other.due) return due > other.due;
      return id > other.id;  // FIFO among same-time events
    }
  };

  /// One registered client. A slot is recycled once its client has left
  /// and the registration-order list no longer names it.
  struct ClientSlot {
    TickClient* client = nullptr;  ///< nullptr once deregistered
    std::uint64_t seq = 0;         ///< registration sequence (1, 2, ...)
    std::uint64_t synced = 0;      ///< last tick index accounted for
    Seconds wake = TickClient::kNeverWakes;  ///< key of its live heap entry
    std::uint32_t gen = 0;         ///< bumped to invalidate older entries
    bool queued = false;           ///< in the current tick's run queue
  };

  /// A client's wake; stale once the slot's generation has moved on.
  struct WakeEntry {
    Seconds wake;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    bool operator>(const WakeEntry& other) const {
      if (wake != other.wake) return wake > other.wake;
      return seq > other.seq;
    }
  };

  /// A client due in the current tick, ordered by registration.
  struct RunEntry {
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator>(const RunEntry& other) const { return seq > other.seq; }
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// passed_through_ outside a tick's client sweep: every slot is passed.
  static constexpr std::uint64_t kAllPassed = ~std::uint64_t{0};

  template <typename T>
  using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<>>;

  void fire_due_events();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  /// Asks fresh clients for their first wake and recycles the slots of
  /// departed ones. Between ticks only.
  void settle_clients();
  /// Moves `slot`'s wake to `wake` if that is earlier than its current one.
  void rewake(std::uint32_t slot, Seconds wake);
  /// Replays `slot`'s slept ticks through tick index `target`.
  void catch_up(std::uint32_t slot, std::uint64_t target);
  void run_fixed_tick();
  void run_due_clients();
  /// Moves now() over every grid tick before `wake` (within the clients'
  /// 1e-9 slack) and not past `end`; returns how many it skipped.
  std::uint64_t skip_ticks(Seconds wake, Seconds end);
  /// Skips shorter than this walk tick by tick, the cheaper way there.
  static constexpr double kJumpFrom = 32;

  Seconds tick_;
  Seconds now_ = 0;
  Seconds prev_now_ = 0;  ///< time of the tick before now_
  Seconds wall_budget_ = 0;
  std::uint64_t max_events_per_instant_ = 0;
  std::uint64_t next_id_ = 1;
  SimCore core_ = SimCore::kEvent;

  std::vector<EventSlot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  MinHeap<QueueEntry> queue_;
  std::vector<std::uint64_t> cancelled_;

  std::vector<ClientSlot> clients_;
  /// Live client slots in registration order; a deregistered one stays
  /// until settle_clients() drops it and frees the slot.
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> free_clients_;
  /// Registered (or re-armed by set_core) but not yet asked for a wake.
  std::vector<std::uint32_t> fresh_;
  bool has_departed_ = false;
  std::uint64_t next_seq_ = 1;
  MinHeap<WakeEntry> wake_heap_;
  MinHeap<RunEntry> run_queue_;
  /// Registration slots the current tick's sweep has passed: 0 while due
  /// events fire, the running client's seq during the sweep, kAllPassed
  /// between ticks.
  std::uint64_t passed_through_ = kAllPassed;

  SimCounters counters_;

  obs::Observer* obs_ = nullptr;
  // Cached metric handles (name lookup is too slow for per-tick updates).
  obs::Counter* ticks_metric_ = nullptr;
  obs::Counter* fired_metric_ = nullptr;
  obs::Counter* scheduled_metric_ = nullptr;
  obs::Counter* cancelled_metric_ = nullptr;
};

}  // namespace vodx::net
