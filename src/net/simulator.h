// Event-driven simulator core over a fixed tick grid.
//
// Simulated time lives on a 10 ms (kTick) grid: every observable
// instant is a grid point, reached by the same `now += tick` float
// recurrence the original fixed-tick loop used, so timestamps — and every
// float derived from them — are bit-identical to the historical core. What
// changed is *which* grid ticks execute work:
//
//   * One-shot events (schedule/cancel) live in an arena of reusable slots;
//     the priority queue orders plain {due, id, slot} records, so heap
//     operations never move a std::function and firing an event never
//     allocates. An event due at time D fires at the first executed tick T
//     with D <= T + 1e-12, FIFO among equals — exactly the old contract.
//   * Fluid components (Link, Player) register as TickClients instead of
//     blind per-tick handlers. A client's tick() is the old handler body;
//     next_wake() names the earliest instant it could next do observable
//     work (rate change, trace bandwidth step, playback boundary, 1 Hz
//     emission); fast_forward() replays the per-tick float recurrences of a
//     span proven inert (position += dt and friends) in one tight loop.
//     A client leaves with remove_tick_client() (a departed population
//     session), which tombstones its slot; tombstones are compacted away
//     between ticks without reordering the survivors, because client
//     order is tick order.
//   * run_until() advances tick by tick, but first skips every grid tick
//     that is *provably* a no-op: no event due, every client's wake beyond
//     it. Skipped ticks still advance now_ by the exact += tick recurrence
//     and still count into the sim.ticks metric, so the observable record
//     of a skipped span is byte-identical to having executed it.
//
// The safety rule for skipping is one-sided: clients may report a wake that
// is *earlier* than their real need (the tick executes and does nothing —
// exactly what the old core did every tick), never later. Any uncertainty
// must resolve to "wake now". SimCore::kFixedTickReference disables
// skipping entirely and is the retained fixed-tick reference
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

/// A fluid component advanced on the tick grid. tick() is the per-tick
/// body; the two extra hooks are what lets the event core skip dead time
/// without changing a single observable float.
class TickClient {
 public:
  /// Sentinel wake for a dormant client.
  static constexpr Seconds kNeverWakes =
      std::numeric_limits<double>::infinity();

  virtual ~TickClient() = default;

  /// One grid tick ending at `now` (clients run in registration order,
  /// after due events fire).
  virtual void tick(Seconds now, Seconds dt) = 0;

  /// Earliest simulated time at which this client could next perform
  /// observable work. Must err early (cheap: one no-op tick), never late
  /// (a correctness bug); return `now` when unsure and kNeverWakes when
  /// dormant. Called between ticks — never re-entered from tick().
  virtual Seconds next_wake(Seconds now) = 0;

  /// `ticks` grid ticks of size dt ending at `now` were skipped as provably
  /// inert. Replay internal per-tick float recurrences exactly as that many
  /// tick() calls would have (and nothing else — the span is, by the
  /// next_wake contract, free of observable work).
  virtual void fast_forward(Seconds now, Seconds dt, std::uint64_t ticks) {
    (void)now;
    (void)dt;
    (void)ticks;
  }
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
  /// kFixedTickReference at any point (tests do it before run_until) makes
  /// every subsequent grid tick execute, reproducing the historical
  /// fixed-tick loop instruction for instruction.
  void set_core(SimCore core) { core_ = core; }
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

  /// Registers a skip-aware tick client (not owned; must outlive the
  /// simulator's runs or deregister first). Clients run in registration
  /// order.
  void add_tick_client(TickClient* client);

  /// Deregisters `client`: it is never ticked, fast-forwarded or polled
  /// again. Idempotent, and a no-op for a client that was never registered.
  /// Safe from inside an event callback or another client's tick(): the
  /// slot becomes a tombstone that every client loop skips, and tombstones
  /// are compacted away between ticks by an order-keeping remove, so the
  /// remaining clients keep their relative tick order.
  void remove_tick_client(TickClient* client);

  /// Runs until simulated time reaches `end` (inclusive of events due then).
  /// Throws WatchdogError when a configured watchdog trips.
  void run_until(Seconds end);

  /// Convenience: run for `duration` more simulated seconds.
  void run_for(Seconds duration) { run_until(now_ + duration); }

  /// Grid ticks covered so far (executed + skipped); equal across cores.
  std::uint64_t ticks_covered() const { return ticks_covered_; }
  /// Grid ticks that actually executed handlers; the skip win is
  /// ticks_covered() - ticks_executed().
  std::uint64_t ticks_executed() const { return ticks_executed_; }
  /// TickClient::tick calls so far, summed over executed ticks: the
  /// per-tick work a registered client costs whether or not it has any.
  std::uint64_t client_ticks() const { return client_ticks_; }

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

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  void fire_due_events();
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  /// Earliest instant anything observable can happen: queue head or a
  /// client wake.
  Seconds earliest_wake();

  Seconds tick_;
  Seconds now_ = 0;
  Seconds wall_budget_ = 0;
  std::uint64_t max_events_per_instant_ = 0;
  std::uint64_t next_id_ = 1;
  SimCore core_ = SimCore::kEvent;

  std::vector<EventSlot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      queue_;
  std::vector<std::uint64_t> cancelled_;

  /// Registration order; nullptr marks a deregistered client (a tombstone)
  /// until the next compaction.
  std::vector<TickClient*> clients_;
  bool has_tombstones_ = false;

  std::uint64_t ticks_covered_ = 0;
  std::uint64_t ticks_executed_ = 0;
  std::uint64_t client_ticks_ = 0;

  obs::Observer* obs_ = nullptr;
  // Cached metric handles (name lookup is too slow for per-tick updates).
  obs::Counter* ticks_metric_ = nullptr;
  obs::Counter* fired_metric_ = nullptr;
  obs::Counter* scheduled_metric_ = nullptr;
  obs::Counter* cancelled_metric_ = nullptr;
};

}  // namespace vodx::net
