// Per-tower telemetry timelines for population runs.
//
// Every tower in a vodx::pop run can produce an obs::Timeline describing its
// load and health over simulated time: arrivals/departures per bin,
// concurrent/stalled/in-startup session counts, the displayed-rung mix,
// delivered goodput against the link's trace capacity, and (when diagnosis
// is on) per-bin stall-blame seconds. Three ingredient kinds feed it:
//
//   * schedule prefill — arrivals and departures are a pure function of the
//     tower's arrival schedule, recorded before the simulator runs;
//   * trace prefill — per-bin link capacity integrates the bandwidth trace;
//   * live sampling — a TowerSampler registered as a skip-aware TickClient
//     wakes the event core exactly once per bin boundary, reads each live
//     HostedSession's O(1) Sample and the link's delivered-byte counter,
//     and closes the bin. Between boundaries it never forces a tick, so
//     the event core's skip win is preserved (DESIGN.md §15).
//
// Tower timelines fold post-join in tower order (obs::Timeline merge
// algebra), so the population timeline is byte-identical at any --jobs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "net/link.h"
#include "net/simulator.h"
#include "obs/timeline.h"

namespace vodx::pop {

struct Arrival;            // pop/population.h
struct PopulationReport;   // pop/population.h

/// Displayed-rung histogram buckets: rung_0..rung_4 plus a 5+ bucket.
inline constexpr int kRungBuckets = 6;

/// Timeline series name for blame seconds charged to cause index
/// `cause_index` (diag::Cause order; "blame_fault", ..., "blame_unknown").
const char* blame_series_name(int cause_index);

/// Number of bins a horizon of `horizon` needs at width `bin_width` (the
/// last bin may be partial). At least 1.
int timeline_bin_count(Seconds horizon, Seconds bin_width);

/// A tower timeline with the full series schema registered in canonical
/// order (so merged timelines always agree on column order): arrivals,
/// departures, capacity_mbit, concurrent, stalled, in_startup, rung_0..5,
/// delivered_mbit, and — when `with_blame` — blame_* seconds per cause.
obs::Timeline make_tower_timeline(Seconds bin_width, Seconds horizon,
                                  bool with_blame);

/// Prefills "arrivals"/"departures" from the tower's arrival schedule: one
/// count per bin, departures at min(at + watch, horizon) and only when the
/// viewer actually departs before the horizon. Pure; exposed so bin-edge
/// tests can feed handcrafted schedules.
void record_schedule(obs::Timeline& timeline,
                     const std::vector<Arrival>& arrivals, Seconds horizon);

/// Prefills "capacity_mbit": megabits the link's trace offers per bin.
void record_capacity(obs::Timeline& timeline, const net::BandwidthTrace& trace,
                     Seconds horizon);

/// What the sampler reads from the tower at one bin boundary.
struct LiveSample {
  int concurrent = 0;  ///< arrived, not yet ended
  int stalled = 0;     ///< of those, mid-session rebuffering
  int in_startup = 0;  ///< of those, resolving manifests or prebuffering
  int rung[kRungBuckets] = {};  ///< last displayed rung histogram
};

/// Skip-aware per-tower sampler. next_wake() names the next bin boundary —
/// the only ticks it ever forces — and tick() closes a bin once simulated
/// time reaches it: gauges from `fn`, delivered megabits as the delta of
/// the link's byte counter. Registration order after the Link, so samples
/// see the bin's final link state. finalize() closes any trailing bins the
/// run loop's float accumulation stopped short of (state is frozen after
/// the last executed tick, so late closure samples identical values).
class TowerSampler : public net::TickClient {
 public:
  using SampleFn = std::function<LiveSample()>;

  /// `timeline` must outlive the sampler and hold the make_tower_timeline
  /// schema; `fn` is invoked once per bin close.
  TowerSampler(obs::Timeline& timeline, net::Link& link, SampleFn fn);

  void tick(Seconds now, Seconds dt) override;
  Seconds next_wake(Seconds now) override;

  /// Closes every still-open bin as of `end` (idempotent).
  void finalize(Seconds end);


 private:
  void close_bin();

  obs::Timeline& timeline_;
  net::Link& link_;
  SampleFn fn_;
  int closed_ = 0;  ///< bins [0, closed_) are final
  Bytes last_delivered_ = 0;
  int concurrent_ = -1;
  int stalled_ = -1;
  int in_startup_ = -1;
  int delivered_ = -1;
  int rung_[kRungBuckets] = {};
};

// --- Population exports ----------------------------------------------------
//
// Rows are keyed by tower: "0".."N-1" in tower-index order, then "pop" for
// the merged population timeline. Columns are the merged timeline's series
// in schema order plus two derived ratios computed at export time only:
// stalled_frac = stalled / max(1, concurrent) and
// utilization = delivered_mbit / capacity_mbit (0 on an idle bin).
// All three are byte-stable.

std::string population_timeline_csv(const PopulationReport& report);
std::string population_timeline_jsonl(const PopulationReport& report);

/// Self-contained HTML dashboard (no external assets, no script): one row
/// per tower plus the population row, each with inline-SVG sparklines for
/// concurrency, stalled fraction, utilization and arrivals.
std::string population_timeline_html(const PopulationReport& report);

}  // namespace vodx::pop
