#include "pop/population.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "batch/sweep.h"
#include "batch/thread_pool.h"
#include "common/error.h"
#include "common/report.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/session_factory.h"
#include "diag/cause.h"
#include "net/link.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "player/player.h"
#include "pop/pop_timeline.h"
#include "services/content_factory.h"
#include "services/service_catalog.h"
#include "trace/cellular_profiles.h"

namespace vodx::pop {

namespace {

// Coordinate tags for batch::derive_seed — distinct per draw family so the
// streams never correlate.
constexpr std::uint64_t kTraceTag = 0x746F7765ULL;    // "towe"
constexpr std::uint64_t kSlotTag = 0x736C6F74ULL;     // "slot"
constexpr std::uint64_t kFlashTag = 0x666C6173ULL;    // "flas"
constexpr std::uint64_t kContentTag = 0x636F6E74ULL;  // "cont"
constexpr std::uint64_t kOriginTag = 0x6F726967ULL;   // "orig"
constexpr std::uint64_t kFaultTag = 0x6661756CULL;    // "faul"

/// Knuth's product-of-uniforms Poisson draw; fine for the per-second rates
/// a cell sees (lambda well under ~30).
int poisson(Rng& rng, double lambda) {
  if (lambda <= 0) return 0;
  const double limit = std::exp(-lambda);
  int k = 0;
  double product = 1.0;
  do {
    ++k;
    product *= rng.uniform(0, 1);
  } while (product > limit);
  return k - 1;
}

/// Instantaneous arrival rate per second at simulated time t.
double rate_at(const ArrivalProcess& process, Seconds t) {
  double rate = process.rate_per_min / 60.0;
  if (process.diurnal_amplitude > 0 && process.diurnal_period > 0) {
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    rate *= 1.0 + process.diurnal_amplitude *
                      std::sin(kTwoPi * t / process.diurnal_period);
  }
  return std::max(0.0, rate);
}

/// Per-arrival material drawn from the slot's (or the flash window's) own
/// stream; `counter` is the tower-local generation ordinal that keys the
/// content seed.
Arrival draw_arrival(const PopulationConfig& config, Rng& rng, Seconds at,
                     int tower_index, int service_count, int counter) {
  Arrival arrival;
  arrival.at = at;
  arrival.watch =
      config.watch_sigma > 0
          ? std::max(1.0, rng.lognormal(config.watch_time, config.watch_sigma))
          : config.watch_time;
  arrival.service_index =
      static_cast<int>(rng.uniform_int(0, service_count - 1));
  arrival.content_seed =
      batch::derive_seed(config.seed, kContentTag,
                         static_cast<std::uint64_t>(tower_index),
                         static_cast<std::uint64_t>(counter));
  return arrival;
}

}  // namespace

std::vector<Arrival> tower_arrivals(const PopulationConfig& config,
                                    int tower_index, int service_count,
                                    int* capped) {
  if (capped != nullptr) *capped = 0;
  VODX_ASSERT(service_count > 0, "empty service pool");
  std::vector<Arrival> arrivals;
  int counter = 0;
  // Poisson-by-1s-slot: each slot's draw count and placements come from the
  // slot's own stream, keyed (seed, tower, slot) — a worker can regenerate
  // any tower's schedule without any shared state.
  const int slots = static_cast<int>(config.horizon);
  for (int slot = 0; slot < slots; ++slot) {
    const double lambda =
        rate_at(config.arrivals, static_cast<Seconds>(slot) + 0.5);
    Rng rng(batch::derive_seed(config.seed, kSlotTag,
                               static_cast<std::uint64_t>(tower_index),
                               static_cast<std::uint64_t>(slot)));
    const int n = poisson(rng, lambda);
    for (int k = 0; k < n; ++k) {
      const Seconds at = static_cast<Seconds>(slot) + rng.uniform(0, 1);
      arrivals.push_back(draw_arrival(config, rng, at, tower_index,
                                      service_count, counter++));
    }
  }
  const ArrivalProcess& process = config.arrivals;
  if (process.flash_at >= 0 && process.flash_arrivals > 0) {
    Rng rng(batch::derive_seed(config.seed, kFlashTag,
                               static_cast<std::uint64_t>(tower_index)));
    for (int k = 0; k < process.flash_arrivals; ++k) {
      const Seconds at =
          process.flash_at +
          rng.uniform(0, std::max(1e-3, process.flash_window));
      if (at >= config.horizon) continue;
      arrivals.push_back(draw_arrival(config, rng, at, tower_index,
                                      service_count, counter++));
    }
  }
  // Stable by time: same-instant arrivals keep generation order, so the
  // schedule is reproducible float for float.
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.at < b.at;
                   });
  if (config.max_sessions_per_tower > 0 &&
      static_cast<int>(arrivals.size()) > config.max_sessions_per_tower) {
    if (capped != nullptr) {
      *capped = static_cast<int>(arrivals.size()) -
                config.max_sessions_per_tower;
    }
    arrivals.resize(static_cast<std::size_t>(config.max_sessions_per_tower));
  }
  return arrivals;
}

TowerTitles::TowerTitles(const PopulationConfig& config,
                         const std::vector<services::ServiceSpec>& pool,
                         int tower_index)
    : pool_(pool),
      content_duration_(config.content_duration),
      shared_content_(config.shared_content),
      tower_content_seed_(batch::derive_seed(
          config.seed, kContentTag, static_cast<std::uint64_t>(tower_index))) {}

std::uint64_t TowerTitles::content_seed(const Arrival& arrival) const {
  return shared_content_ ? tower_content_seed_ : arrival.content_seed;
}

std::shared_ptr<const http::OriginServer> TowerTitles::title(
    const Arrival& arrival) {
  const std::uint64_t seed = content_seed(arrival);
  std::shared_ptr<const http::OriginServer>& title =
      titles_[{arrival.service_index, seed}];
  if (title == nullptr) {
    title = std::make_shared<const http::OriginServer>(services::make_origin(
        pool_[static_cast<std::size_t>(arrival.service_index)],
        content_duration_, seed));
  }
  return title;
}

namespace {

/// Adds one session's state to a bin sample; an ended session adds nothing.
void add_to_sample(LiveSample& sample, const core::HostedSession::Sample& s) {
  if (s.state == player::PlayerState::kEnded) return;
  ++sample.concurrent;
  if (s.state == player::PlayerState::kRebuffering) ++sample.stalled;
  if (s.state == player::PlayerState::kResolving ||
      s.state == player::PlayerState::kStartup) {
    ++sample.in_startup;
  }
  if (s.rung >= 0) ++sample.rung[std::min(s.rung, kRungBuckets - 1)];
}

TowerReport run_tower(const PopulationConfig& config, int tower_index,
                      const std::vector<services::ServiceSpec>& pool) {
  VODX_PROFILE_ZONE("pop.tower");
  const int profile_id =
      config.towers[static_cast<std::size_t>(tower_index)];
  core::SessionFactory::validate_profile(profile_id);

  net::Simulator sim(config.sim_settings());
  net::Link link(
      sim, trace::cellular_profile(
               profile_id,
               batch::derive_seed(config.seed, kTraceTag,
                                  static_cast<std::uint64_t>(tower_index))));

  int capped = 0;
  const std::vector<Arrival> arrivals = tower_arrivals(
      config, tower_index, static_cast<int>(pool.size()), &capped);

  core::SessionFactory factory;
  factory.session_duration = config.horizon;
  factory.content_duration = config.content_duration;
  factory.sim_settings() = config.sim_settings();

  // One origin state per tower: every session the tower hosts shares this
  // edge cache and breaker (the tower's simulator is single-threaded, so
  // the sharing is race-free by construction). shared_content collapses the
  // tower onto one title per service so the cache sees real cross-session
  // hits, and the tower builds each such title once.
  const bool with_origin = config.origin.mode != origin::Mode::kNone;
  std::shared_ptr<origin::OriginState> origin_state;
  if (with_origin) origin_state = std::make_shared<origin::OriginState>();
  TowerTitles titles(config, pool, tower_index);

  // A session is hosted from its arrival event. An undiagnosed session is
  // folded and destroyed at its departure, so a tower holds only its live
  // sessions; diagnosed ones (at most diag_session_budget) and those still
  // live at the horizon fold after the run.
  struct Hosted {
    std::unique_ptr<core::HostedSession> session;
    Seconds departure = 0;  ///< min(arrival + watch, horizon)
    bool arrived = false;
  };
  std::vector<Hosted> hosted(arrivals.size());
  std::vector<SessionOutcome> outcomes(arrivals.size());  ///< by arrival
  // Arrival indices of the sessions between arrival and departure: the
  // sampler's walk. Its order is irrelevant, the sample is integer counts.
  // A departed session counts in no later bin, whatever state it left in.
  std::vector<std::size_t> live;
  int peak = 0;
  Seconds peak_time = 0;

  // Per-session observers for the diagnosed prefix of the arrival order,
  // masked to the evidence diag reads (kDiagEvidenceMask).
  const bool diagnose = config.diagnose;
  std::vector<std::unique_ptr<obs::Observer>> observers(
      diagnose ? arrivals.size() : 0);
  const auto diagnosed_ordinal = [&](std::size_t i) {
    return diagnose && (config.diag_session_budget <= 0 ||
                        static_cast<int>(i) < config.diag_session_budget);
  };

  // Ground truth only: the ordinal is assigned in arrival order after the
  // run, over the sessions that arrived.
  const auto fold_outcome = [&](std::size_t i, Seconds session_end) {
    const Arrival& a = arrivals[i];
    const core::SessionResult result =
        hosted[i].session->finish_light(session_end);
    SessionOutcome& outcome = outcomes[i];
    outcome.tower = tower_index;
    outcome.arrival = a.at;
    outcome.departure = hosted[i].departure;
    outcome.service = pool[static_cast<std::size_t>(a.service_index)].name;
    outcome.startup_delay = result.ground_truth.startup_delay;
    outcome.stall_time = result.ground_truth.total_stall;
    outcome.stall_count = result.ground_truth.stall_count;
    outcome.total_bytes = result.ground_truth.total_bytes;
    const Seconds active =
        std::max(config.tick, outcome.departure - outcome.arrival);
    outcome.mbps =
        static_cast<double>(outcome.total_bytes) * 8.0 / active / 1e6;
    outcome.final_state = player::to_string(result.final_state);
  };

  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    sim.schedule(a.at, [&, i] {
      VODX_PROFILE_ZONE("pop.setup");
      const Arrival& arr = arrivals[i];
      core::SessionConfig session_config = factory.config(
          pool[static_cast<std::size_t>(arr.service_index)],
          net::BandwidthTrace());  // the shared link already embodies it
      session_config.content_seed = titles.content_seed(arr);
      session_config.title = titles.title(arr);
      if (with_origin) {
        session_config.origin = config.origin;
        // Per-session jitter stream, keyed like every other pop draw.
        session_config.origin.seed = batch::derive_seed(
            config.seed, kOriginTag, static_cast<std::uint64_t>(tower_index),
            static_cast<std::uint64_t>(i));
        session_config.origin_state = origin_state;
      }
      if (!config.fault_plan.empty()) {
        faults::FaultPlan plan = config.fault_plan;
        plan.seed = batch::derive_seed(config.seed, kFaultTag,
                                       static_cast<std::uint64_t>(tower_index),
                                       static_cast<std::uint64_t>(i));
        session_config.fault_plan = std::move(plan);
      }
      if (diagnosed_ordinal(i)) {
        observers[i] = std::make_unique<obs::Observer>(std::size_t{1} << 15);
        observers[i]->trace.set_category_mask(kDiagEvidenceMask);
        observers[i]->trace.set_clock([&sim] { return sim.now(); });
        session_config.observer = observers[i].get();
      }
      Hosted& slot = hosted[i];
      slot.session =
          std::make_unique<core::HostedSession>(sim, link, session_config);
      slot.session->start();
      slot.arrived = true;
      live.push_back(i);
      if (static_cast<int>(live.size()) > peak) {
        peak = static_cast<int>(live.size());
        peak_time = sim.now();
      }
      slot.departure = std::min(arr.at + arr.watch, config.horizon);
      if (slot.departure < config.horizon) {
        sim.schedule(std::max(0.0, slot.departure - sim.now()), [&, i] {
          VODX_PROFILE_ZONE("pop.fold");
          Hosted& h = hosted[i];
          h.session->stop();  // also leaves the simulator's client list
          std::erase(live, i);
          if (diagnosed_ordinal(i)) return;  // diagnosis needs it after
          fold_outcome(i, config.horizon);
          h.session.reset();
        });
      }
    });
  }

  // Telemetry: prefill the schedule-derived and trace-derived series, then
  // register the skip-aware sampler (after the Link, so a bin close reads
  // the bin's final link state).
  const bool with_timeline = config.collect_timeline || diagnose;
  obs::Timeline timeline;
  std::unique_ptr<TowerSampler> sampler;
  if (with_timeline) {
    timeline = make_tower_timeline(config.timeline_bin, config.horizon,
                                   diagnose);
    record_schedule(timeline, arrivals, config.horizon);
    record_capacity(timeline, link.trace(), config.horizon);
    sampler = std::make_unique<TowerSampler>(timeline, link, [&] {
      VODX_PROFILE_ZONE("pop.sample");
      LiveSample sample;
      for (std::size_t i : live) {
        add_to_sample(sample, hosted[i].session->sample());
      }
      return sample;
    });
    sim.add_tick_client(sampler.get());
  }

  sim.run_until(config.horizon);
  if (sampler != nullptr) sampler->finalize(config.horizon);

  TowerReport report;
  report.profile_id = profile_id;
  report.capped_arrivals = capped;
  report.peak_concurrent = peak;
  report.time_of_peak = peak_time;
  report.sim = sim.counters();

  // Fold in arrival order, so every sum below runs in the same order
  // however the sessions departed.
  std::vector<double> startups;
  std::vector<double> stalls;
  std::vector<double> rates;
  {
    VODX_PROFILE_ZONE("pop.fold");
    for (std::size_t i = 0; i < hosted.size(); ++i) {
      if (!hosted[i].arrived) continue;  // arrival beyond the run
      if (hosted[i].session != nullptr) fold_outcome(i, sim.now());
      SessionOutcome& outcome = outcomes[i];
      outcome.ordinal = static_cast<int>(report.outcomes.size());
      if (outcome.startup_delay >= 0) {
        startups.push_back(outcome.startup_delay);
      }
      stalls.push_back(outcome.stall_time);
      rates.push_back(outcome.mbps);
      report.outcomes.push_back(std::move(outcome));
    }
  }

  if (diagnose) {
    VODX_PROFILE_ZONE("pop.diag");
    const std::vector<diag::Step> capacity = fair_share_capacity(timeline);
    for (std::size_t i = 0; i < hosted.size(); ++i) {
      if (!hosted[i].arrived) continue;
      if (observers[i] == nullptr) {
        ++report.diag_skipped;
        continue;
      }
      // Diagnosis reads the analyzed wire log (finish_light leaves
      // result.traffic empty, blinding the deficit/ABR evidence); outcomes
      // above still fold from finish_light, so they are byte-identical
      // whether diagnosis is on or off.
      const core::SessionResult analyzed =
          hosted[i].session->finish_traffic(sim.now());
      const diag::Diagnosis diagnosis =
          diag::diagnose(analyzed, *observers[i], {}, capacity);
      report.diag.fold(diagnosis);
      fold_blame_bins(timeline, diagnosis);
    }
  }
  report.timeline = std::move(timeline);
  if (with_origin) report.origin_totals = origin_state->totals;

  // The sessions still held (diagnosed, or live at the horizon) must be
  // destroyed before sim + link leave scope; explicit for clarity (the
  // vector would go out of scope in the right order anyway).
  hosted.clear();

  report.sessions = static_cast<int>(report.outcomes.size());
  report.startup = quantiles(startups);
  report.stall = quantiles(stalls);
  report.jain = jain_index(rates);
  report.mean_mbps = mean(rates);
  return report;
}

}  // namespace

PopulationReport run_population(const PopulationConfig& config) {
  // Resolve the service pool up front: unknown names throw here, once, and
  // the catalog's magic static warms before any worker spawns (same
  // rationale as batch::run_sweep).
  std::vector<services::ServiceSpec> pool;
  if (config.services.empty()) {
    pool = services::catalog();
  } else {
    for (const std::string& name : config.services) {
      pool.push_back(services::service(name));
    }
  }
  for (int id : config.towers) core::SessionFactory::validate_profile(id);
  for (int id : config.towers) trace::profile_mean(id);

  PopulationReport report;
  report.towers = batch::parallel_map<TowerReport>(
      config.towers.size(), config.jobs,
      [&](std::size_t index) {
        return run_tower(config, static_cast<int>(index), pool);
      });

  std::vector<double> startups;
  std::vector<double> stalls;
  struct PerService {
    std::vector<double> startups, stalls, rates;
  };
  std::vector<PerService> per_service(pool.size());
  report.diagnosed = config.diagnose;
  report.origin_enabled = config.origin.mode != origin::Mode::kNone;
  for (const TowerReport& tower : report.towers) {
    report.total_sessions += tower.sessions;
    report.timeline.merge_from(tower.timeline);
    report.diag.merge_from(tower.diag);
    report.diag_skipped += tower.diag_skipped;
    report.origin_totals.merge_from(tower.origin_totals);
    for (const SessionOutcome& outcome : tower.outcomes) {
      if (outcome.startup_delay >= 0) {
        startups.push_back(outcome.startup_delay);
      } else {
        ++report.never_started;
      }
      stalls.push_back(outcome.stall_time);
      for (std::size_t s = 0; s < pool.size(); ++s) {
        if (pool[s].name != outcome.service) continue;
        if (outcome.startup_delay >= 0) {
          per_service[s].startups.push_back(outcome.startup_delay);
        }
        per_service[s].stalls.push_back(outcome.stall_time);
        per_service[s].rates.push_back(outcome.mbps);
        break;
      }
    }
  }
  report.startup = quantiles(startups);
  report.stall = quantiles(stalls);
  for (std::size_t s = 0; s < pool.size(); ++s) {
    ServiceRollup rollup;
    rollup.service = pool[s].name;
    rollup.sessions = static_cast<int>(per_service[s].stalls.size());
    rollup.startup = quantiles(per_service[s].startups);
    rollup.stall = quantiles(per_service[s].stalls);
    rollup.mean_mbps = mean(per_service[s].rates);
    report.by_service.push_back(std::move(rollup));
  }
  return report;
}

PopulationConfig origin_drill() {
  PopulationConfig config;
  config.towers = {14};
  config.horizon = 120;
  config.content_duration = 180;
  config.watch_time = 90;
  config.arrivals.rate_per_min = 2;
  config.arrivals.flash_at = 25;
  config.arrivals.flash_window = 15;
  config.arrivals.flash_arrivals = 24;
  config.shared_content = true;
  config.fault_plan.dc_blackouts.push_back(faults::DcBlackoutFault{28, 30});
  return config;
}

Completion completed_sessions(const PopulationReport& report) {
  const std::string playing = player::to_string(player::PlayerState::kPlaying);
  const std::string ended = player::to_string(player::PlayerState::kEnded);
  Completion completion;
  for (const TowerReport& tower : report.towers) {
    for (const SessionOutcome& s : tower.outcomes) {
      ++completion.total;
      if (s.startup_delay >= 0 &&
          (s.final_state == playing || s.final_state == ended)) {
        ++completion.completed;
      }
    }
  }
  return completion;
}

namespace {

constexpr Table::Align kRight = Table::Align::kRight;

/// Six right-aligned 10-wide "%.2f" columns: p50/p95/p99 of startup, then
/// of stall time.
void add_quantile_columns(Table& table) {
  for (const char* name : {"start_p50", "start_p95", "start_p99", "stall_p50",
                           "stall_p95", "stall_p99"}) {
    table.add_column(name, Format::fixed(2), kRight, 10);
  }
}

void add_quantiles(Table& table, const QuantileSummary& startup,
                   const QuantileSummary& stall) {
  table.add(startup.p50).add(startup.p95).add(startup.p99);
  table.add(stall.p50).add(stall.p95).add(stall.p99);
}

}  // namespace

std::string population_text(const PopulationReport& report) {
  Report text;
  text.line(format(
      "population: %zu tower(s), %d session(s), %d never started playback",
      report.towers.size(), report.total_sessions, report.never_started));
  Table towers;
  towers.layout(1, Table::Header::kPlain);
  towers.add_column("tower", Format::integer(), kRight, 5)
      .add_column("profile", Format::integer(), kRight, 7)
      .add_column("sessions", Format::integer(), kRight, 8)
      .add_column("capped", Format::integer(), kRight, 6)
      .add_column("peak", Format::integer(), kRight, 5)
      .add_column("peak_t", Format::fixed(1), kRight, 8);
  add_quantile_columns(towers);
  towers.add_column("jain", Format::fixed(3), kRight, 6)
      .add_column("mean_mbps", Format::fixed(3), kRight, 10);
  for (std::size_t i = 0; i < report.towers.size(); ++i) {
    const TowerReport& t = report.towers[i];
    towers.add(i).add(t.profile_id).add(t.sessions).add(t.capped_arrivals);
    towers.add(t.peak_concurrent).add(t.time_of_peak);
    add_quantiles(towers, t.startup, t.stall);
    towers.add(t.jain).add(t.mean_mbps);
  }
  text.section("", std::move(towers));
  for (std::size_t i = 0; i < report.towers.size(); ++i) {
    const TowerReport& t = report.towers[i];
    if (t.capped_arrivals == 0) continue;
    text.line(format(
        "warning: tower %zu dropped %d arrival(s) at the "
        "max-sessions-per-tower cap; its distributions are censored",
        i, t.capped_arrivals));
  }
  Table services;
  services.layout(1, Table::Header::kPlain);
  services.add_column("service", Format{}, Table::Align::kLeft, 7)
      .add_column("sessions", Format::integer(), kRight, 9);
  add_quantile_columns(services);
  services.add_column("mean_mbps", Format::fixed(3), kRight, 10);
  for (const ServiceRollup& s : report.by_service) {
    if (s.sessions == 0) continue;
    services.add(s.service).add(s.sessions);
    add_quantiles(services, s.startup, s.stall);
    services.add(s.mean_mbps);
  }
  text.section("", std::move(services));
  text.line(format(
      "overall: startup p50/p95/p99 = %.2f/%.2f/%.2f s, "
      "stall p50/p95/p99 = %.2f/%.2f/%.2f s",
      report.startup.p50, report.startup.p95, report.startup.p99,
      report.stall.p50, report.stall.p95, report.stall.p99));
  if (report.diagnosed) {
    const diag::DiagRollup& d = report.diag;
    text.line(format(
        "diag: %d session(s) diagnosed, %d skipped (budget); "
        "stall %.2f s, startup %.2f s, stall attribution %.1f%%",
        d.cells, report.diag_skipped, d.stall_s, d.startup_s,
        d.stall_attributed_fraction() * 100.0));
    // This header line is older than the table and sits one column left
    // of the values under it; it stays as written.
    text.line("cause                 blamed_s    stall_s  stall_share");
    Table causes;
    causes.layout(1, Table::Header::kNone);
    causes.add_column("cause", Format{}, Table::Align::kLeft, 22)
        .add_column("blamed_s", Format::fixed(2), kRight, 8)
        .add_column("stall_s", Format::fixed(2), kRight, 10)
        .add_column("stall_share", Format::fixed(3), kRight, 12);
    for (int c = 0; c < diag::kCauseCount; ++c) {
      const double share =
          d.stall_s > 0 ? d.stall_blamed_s[c] / d.stall_s : 0.0;
      causes.add_row(diag::to_string(static_cast<diag::Cause>(c)),
                      d.blamed_s[c], d.stall_blamed_s[c], share);
    }
    text.section("", std::move(causes));
    if (d.trace_dropped > 0) {
      text.line(format(
          "warning: %llu trace event(s) dropped across diagnosed sessions; "
          "evidence may be incomplete",
          static_cast<unsigned long long>(d.trace_dropped)));
    }
  }
  if (report.origin_enabled) {
    const origin::OriginState::Totals& o = report.origin_totals;
    const std::int64_t lookups = o.hits + o.misses;
    const double hit_rate =
        lookups > 0 ? static_cast<double>(o.hits) / lookups : 0.0;
    text.line(format(
        "origin: %lld hit(s) / %lld miss(es) (%.1f%% hit rate), "
        "%lld expired, %lld coalesced, %lld duplicate fill(s), "
        "%lld flush(es)",
        o.hits, o.misses,
        hit_rate * 100.0, o.expired,
        o.coalesced,
        o.dup_fills,
        o.flushes));
    text.line(format(
        "origin failover: %lld retry(ies), %lld breaker trip(s), "
        "%lld probe(s), %lld served by secondary, %lld error(s)",
        o.retries, o.trips,
        o.probes,
        o.secondary,
        o.errors));
    if (o.consistency_failures > 0) {
      text.line(format(
          "warning: %lld cache-consistency failure(s) — cached bytes "
          "diverged from the origin copy",
          o.consistency_failures));
    }
  }
  return text.text();
}

namespace {

/// One row per tower: the union of the tower CSV and the JSONL tower line.
Table tower_table(const PopulationReport& report) {
  Table table;
  for (const char* name : {"tower", "profile", "sessions", "capped_arrivals",
                           "peak_concurrent"}) {
    table.add_column(name, Format::integer());
  }
  for (const char* name : {"time_of_peak_s", "startup_p50", "startup_p95",
                           "startup_p99", "stall_p50", "stall_p95",
                           "stall_p99"}) {
    table.add_column(name, Format::fixed(3));
  }
  table.add_column("jain", Format::fixed(4));
  table.add_column("mean_mbps", Format::fixed(4));
  if (report.diagnosed) {
    table.add_column("sessions_diagnosed", Format::integer());
    table.add_column("sessions_skipped", Format::integer());
    table.add_column("stall_attributed_frac", Format::fixed(4));
    for (int c = 0; c < diag::kCauseCount; ++c) {
      table.add_column(std::string("stall_s_") +
                            diag::to_string(static_cast<diag::Cause>(c)),
                        Format::fixed(3));
    }
  }
  for (const char* name : {"ticks_covered", "ticks_executed", "client_ticks",
                           "client_fast_forwards", "events_fired"}) {
    table.add_column(name, Format::integer());
  }
  for (std::size_t i = 0; i < report.towers.size(); ++i) {
    const TowerReport& t = report.towers[i];
    table.add(i).add(t.profile_id).add(t.sessions).add(t.capped_arrivals);
    table.add(t.peak_concurrent).add(t.time_of_peak);
    table.add(t.startup.p50).add(t.startup.p95).add(t.startup.p99);
    table.add(t.stall.p50).add(t.stall.p95).add(t.stall.p99);
    table.add(t.jain).add(t.mean_mbps);
    if (report.diagnosed) {
      table.add(t.diag.cells).add(t.diag_skipped);
      table.add(t.diag.stall_attributed_fraction());
      for (const double blamed : t.diag.stall_blamed_s) table.add(blamed);
    }
    table.add(t.sim.ticks_covered).add(t.sim.ticks_executed);
    table.add(t.sim.client_ticks).add(t.sim.fast_forwards);
    table.add(t.sim.events_fired);
  }
  return table;
}

/// One row per session, tower-index then arrival order.
Table session_table(const PopulationReport& report) {
  Table table;
  for (const char* name : {"tower", "profile", "ordinal"}) {
    table.add_column(name, Format::integer());
  }
  table.add_column("service");
  for (const char* name :
       {"arrival_s", "departure_s", "startup_delay_s", "stall_time_s"}) {
    table.add_column(name, Format::fixed(3));
  }
  table.add_column("stall_count", Format::integer());
  table.add_column("total_bytes", Format::integer());
  table.add_column("mbps", Format::fixed(4));
  table.add_column("final_state");
  for (const TowerReport& tower : report.towers) {
    for (const SessionOutcome& s : tower.outcomes) {
      table.add_row(s.tower, tower.profile_id, s.ordinal, s.service,
                     s.arrival, s.departure, s.startup_delay, s.stall_time,
                     s.stall_count, s.total_bytes, s.mbps, s.final_state);
    }
  }
  return table;
}

}  // namespace

std::string population_jsonl(const PopulationReport& report) {
  return tower_table(report).jsonl("tower") + session_table(report).jsonl();
}

std::string population_csv(const PopulationReport& report) {
  return session_table(report).csv();
}

std::string population_tower_csv(const PopulationReport& report) {
  return tower_table(report).csv();
}

}  // namespace vodx::pop
