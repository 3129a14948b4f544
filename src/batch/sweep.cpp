#include "batch/sweep.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <tuple>

#include "batch/thread_pool.h"
#include "net/simulator.h"
#include "common/json.h"
#include "common/strings.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "core/qoe.h"
#include "core/report.h"
#include "core/session_factory.h"
#include "faults/fault_plan.h"
#include "services/content_factory.h"

namespace vodx::batch {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// The sweep's titles: one per (service index, content seed, content
/// duration), built on first use. Each title builds under its own
/// std::call_once, so distinct titles build in parallel on different
/// workers while the first users of one title wait for its single build;
/// the mutex only guards the slot lookup.
class SweepTitles {
 public:
  std::shared_ptr<const http::OriginServer> get(
      int service_index, const core::SessionConfig& session) {
    Slot* slot = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      std::unique_ptr<Slot>& entry = slots_[Key{
          service_index, session.content_seed, session.content_duration}];
      if (entry == nullptr) entry = std::make_unique<Slot>();
      slot = entry.get();
    }
    std::call_once(slot->once, [&] {
      slot->title = std::make_shared<const http::OriginServer>(
          services::make_origin(session.spec, session.content_duration,
                                session.content_seed));
    });
    return slot->title;
  }

  /// Titles built so far; call once the workers have joined.
  int built() const {
    return static_cast<int>(std::count_if(
        slots_.begin(), slots_.end(),
        [](const auto& entry) { return entry.second->title != nullptr; }));
  }

 private:
  using Key = std::tuple<int, std::uint64_t, Seconds>;
  struct Slot {
    std::once_flag once;
    std::shared_ptr<const http::OriginServer> title;
  };

  std::mutex mutex_;
  std::map<Key, std::unique_ptr<Slot>> slots_;
};

}  // namespace

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t a, std::uint64_t b,
                          std::uint64_t c) {
  std::uint64_t x = base;
  x = mix64(x ^ (a + 0x9E3779B97F4A7C15ULL));
  x = mix64(x ^ (b + 0xD1B54A32D192ED03ULL));
  x = mix64(x ^ (c + 0x8CB92BA72F3D8DD7ULL));
  return x;
}

std::uint64_t trace_seed_for(std::uint64_t sweep_seed) {
  if (sweep_seed == 0) return kLegacyTraceSeed;
  return derive_seed(kLegacyTraceSeed, sweep_seed, /*b=*/1);
}

std::uint64_t content_seed_for(std::uint64_t sweep_seed) {
  if (sweep_seed == 0) return kLegacyContentSeed;
  return derive_seed(kLegacyContentSeed, sweep_seed, /*b=*/2);
}

std::uint64_t fault_seed_for(std::uint64_t sweep_seed, int service_index,
                             int profile_index, int fault_index) {
  // Chained so the fault schedule decorrelates across *all* coordinates:
  // the same scenario on a neighbouring profile draws a different schedule.
  return derive_seed(derive_seed(sweep_seed, /*a=*/3),
                     static_cast<std::uint64_t>(service_index),
                     static_cast<std::uint64_t>(profile_index),
                     static_cast<std::uint64_t>(fault_index));
}

std::string CellResult::coordinates() const {
  std::string out =
      format("(%s, profile %d, seed %llu", service.c_str(), profile_id,
             static_cast<unsigned long long>(seed));
  if (fault != "none") out += format(", fault %s", fault.c_str());
  if (origin != "none") out += format(", origin %s", origin.c_str());
  return out + ")";
}

SweepResult run_sweep(const SweepConfig& config) {
  const std::size_t n_services = config.services.size();
  const std::size_t n_profiles = config.profiles.size();
  const std::size_t n_seeds = config.seeds.size();
  const std::size_t n_faults = config.fault_scenarios.size();
  const std::size_t n_origins = config.origin_modes.size();
  const std::size_t total =
      n_services * n_profiles * n_seeds * n_faults * n_origins;

  SweepResult out;
  out.cells.resize(total);
  if (total == 0) return out;

  // Touch every immutable-after-init shared input on this thread, before any
  // worker exists: the service catalog's magic static and the profile-mean
  // table. Cells never mutate these; warming them here removes even the
  // benign first-use races from the TSan picture.
  services::catalog();
  for (int id : config.profiles) {
    if (id >= 1 && id <= trace::kProfileCount) trace::profile_mean(id);
  }

  // One observer per cell when requested, allocated up front so a worker
  // only ever touches the observer owned by its claimed index. Metrics-only
  // collection keeps the event ring off: counters and histograms are what
  // the aggregation layer folds, and tracing every cell of a large grid
  // would dominate the run's memory.
  const auto make_observer = [&config] {
    auto o = std::make_unique<obs::Observer>();
    if (!config.observe) o->trace.set_enabled(false);
    o->trace.set_category_mask(obs::kEvidenceMask);
    return o;
  };
  std::vector<std::unique_ptr<obs::Observer>> observers;
  if (config.observe || config.collect_metrics) {
    observers.resize(total);
    for (auto& o : observers) o = make_observer();
  }

  // One construction path for every cell: the shared knobs are threaded
  // into the factory once, here, and never per cell.
  core::SessionFactory factory;
  factory.session_duration = config.session_duration;
  factory.content_duration = config.content_duration;
  factory.qoe_options = config.qoe_options;
  factory.sim_settings() = config.sim_settings();

  SweepTitles titles;
  std::mutex progress_mutex;
  std::size_t done = 0;

  parallel_for(total, config.jobs, [&](std::size_t index) {
    VODX_PROFILE_ZONE("sweep.cell");
    const std::size_t per_service = n_profiles * n_seeds * n_faults * n_origins;
    const std::size_t per_profile = n_seeds * n_faults * n_origins;
    const std::size_t per_seed = n_faults * n_origins;
    CellResult& cell = out.cells[index];
    cell.cell.service_index = static_cast<int>(index / per_service);
    cell.cell.profile_index =
        static_cast<int>((index % per_service) / per_profile);
    cell.cell.seed_index =
        static_cast<int>((index % per_profile) / per_seed);
    cell.cell.fault_index = static_cast<int>((index % per_seed) / n_origins);
    cell.cell.origin_index = static_cast<int>(index % n_origins);

    const services::ServiceSpec& spec =
        config.services[static_cast<std::size_t>(cell.cell.service_index)];
    cell.service = spec.name;
    cell.profile_id =
        config.profiles[static_cast<std::size_t>(cell.cell.profile_index)];
    cell.seed = config.seeds[static_cast<std::size_t>(cell.cell.seed_index)];
    cell.fault = config.fault_scenarios[static_cast<std::size_t>(
        cell.cell.fault_index)];
    cell.origin = config.origin_modes[static_cast<std::size_t>(
        cell.cell.origin_index)];

    // A config-rejected cell never enters the attempt loop: the error is
    // deterministic and must count zero attempts.
    bool profile_ok = true;
    try {
      core::SessionFactory::validate_profile(cell.profile_id);
    } catch (const std::exception& e) {
      cell.error = e.what();
      profile_ok = false;
    }
    if (profile_ok) {
      // Self-healing attempt loop: watchdog aborts (wall budget, event
      // livelock) get a bounded number of fresh attempts; any other failure
      // is deterministic and fails the cell immediately. A cell that burns
      // every attempt is quarantined, not dropped.
      const int max_attempts = 1 + std::max(0, config.cell_retries);
      for (int attempt = 0; attempt < max_attempts; ++attempt) {
        ++cell.attempts;
        try {
          core::SessionConfig session =
              factory.config(spec, cell.profile_id, trace_seed_for(cell.seed),
                             content_seed_for(cell.seed));
          if (cell.fault != "none") {
            // Unknown scenario names throw ConfigError here and become a
            // per-cell failure with coordinates, like a bad profile id.
            faults::FaultPlan plan = faults::scenario(cell.fault);
            plan.seed = fault_seed_for(cell.seed, cell.cell.service_index,
                                       cell.cell.profile_index,
                                       cell.cell.fault_index);
            session.fault_plan = std::move(plan);
          }
          if (cell.origin != "none") {
            // Unknown modes throw ConfigError like unknown scenarios; the
            // jitter seed decorrelates across coordinates the same way the
            // fault seed does.
            session.origin = origin::preset(origin::parse_mode(cell.origin));
            session.origin.seed = derive_seed(
                derive_seed(cell.seed, /*a=*/4),
                static_cast<std::uint64_t>(cell.cell.service_index),
                static_cast<std::uint64_t>(cell.cell.profile_index),
                static_cast<std::uint64_t>(cell.cell.origin_index));
          }
          if (config.prepare) config.prepare(cell.cell, session);
          // Resolved after the hook, keyed on what it left in the config.
          session.title = titles.get(cell.cell.service_index, session);
          if (!observers.empty()) {
            // A retry must not fold the aborted attempt's counters into the
            // final snapshot; give the cell a fresh observer.
            if (attempt > 0) observers[index] = make_observer();
            session.observer = observers[index].get();
          }
          cell.result = core::run_session(session);
          cell.ok = true;
          cell.quarantined = false;
          cell.error.clear();
          if (!observers.empty()) {
            cell.metrics =
                observers[index]->metrics.snapshot(cell.result.session_end);
            cell.has_metrics = true;
            cell.trace_emitted = observers[index]->trace.emitted();
            cell.trace_dropped = observers[index]->trace.dropped();
          }
          break;
        } catch (const net::WatchdogError& e) {
          cell.error = e.what();
          cell.quarantined = true;  // stands unless a later attempt succeeds
        } catch (const std::exception& e) {
          cell.error = e.what();
          break;  // deterministic failure: retrying reproduces it
        }
      }
    }

    if (config.progress) {
      std::lock_guard<std::mutex> lock(progress_mutex);
      config.progress(cell, ++done, total);
    }
  });

  out.titles = titles.built();
  for (const CellResult& cell : out.cells) {
    if (!cell.ok) ++out.failed;
    if (cell.quarantined) ++out.quarantined;
    if (cell.attempts > 1) ++out.retried;
  }
  if (config.observe) {
    for (std::size_t i = 0; i < total; ++i) {
      config.observe(out.cells[i], *observers[i]);
    }
  }
  return out;
}

SweepConfig full_grid() {
  SweepConfig config;
  config.services = services::catalog();
  config.profiles = all_profile_ids();
  return config;
}

std::vector<int> all_profile_ids() {
  std::vector<int> ids;
  ids.reserve(trace::kProfileCount);
  for (int id = 1; id <= trace::kProfileCount; ++id) ids.push_back(id);
  return ids;
}

std::string sweep_csv(const SweepResult& result) {
  // Reuse the session CSV columns; the "label" column becomes the three
  // coordinate columns.
  std::string header = core::qoe_csv_header();
  const std::string label_prefix = "label,";
  if (starts_with(header, label_prefix)) header.erase(0, label_prefix.size());
  std::string out = "service,profile,seed,fault,origin," + header;
  for (const CellResult& cell : result.cells) {
    if (!cell.ok) continue;
    out += core::qoe_csv_row(
        format("%s,%d,%llu,%s,%s", cell.service.c_str(), cell.profile_id,
               static_cast<unsigned long long>(cell.seed), cell.fault.c_str(),
               cell.origin.c_str()),
        cell.result);
  }
  return out;
}

std::string sweep_jsonl(const SweepResult& result) {
  std::string out;
  JsonWriter w(out);
  for (const CellResult& cell : result.cells) {
    w.begin_object().key("service").string(cell.service);
    w.key("profile").raw(std::to_string(cell.profile_id));
    w.key("seed").raw(std::to_string(cell.seed));
    w.key("fault").string(cell.fault).key("origin").string(cell.origin);
    w.key("ok").boolean(cell.ok);
    if (!cell.ok) {
      w.key("quarantined").boolean(cell.quarantined);
      w.key("attempts").raw(std::to_string(cell.attempts));
      w.key("error").string(cell.error);
    } else {
      const core::QoeReport& q = cell.result.qoe;
      w.key("startup_delay_s").raw(format("%.2f", q.startup_delay));
      w.key("stall_count").raw(std::to_string(q.stall_count));
      w.key("stall_time_s").raw(format("%.2f", q.total_stall));
      w.key("avg_declared_bitrate_bps")
          .raw(format("%.0f", q.average_declared_bitrate));
      w.key("low_quality_fraction")
          .raw(format("%.4f", q.low_quality_fraction));
      w.key("switches").raw(std::to_string(q.switch_count));
      w.key("nonconsecutive_switches")
          .raw(std::to_string(q.nonconsecutive_switch_count));
      w.key("media_bytes").raw(std::to_string(q.media_bytes));
      w.key("total_bytes").raw(std::to_string(q.total_bytes));
      w.key("wasted_bytes").raw(std::to_string(q.wasted_bytes));
      w.key("qoe_score")
          .raw(format("%.3f", core::qoe_score(q, cell.result.session_end)));
      w.key("final_state").string(player::to_string(cell.result.final_state));
      w.key("session_end_s").raw(format("%.2f", cell.result.session_end));
    }
    w.end_object();
    out += '\n';
  }
  return out;
}

}  // namespace vodx::batch
