// Resilience under injected faults: every catalog service played through
// every built-in fault scenario, once with its default player and once with
// the faults::hardened profile. The grid runs through the batch engine, so
// the snapshot is byte-stable at any $VODX_JOBS — this is the golden
// regression for the vodx::faults subsystem (DESIGN.md §9).
#include "support.h"

#include <cstdio>

#include "batch/sweep.h"
#include "faults/fault_plan.h"
#include "player/player.h"

using namespace vodx;

namespace {

batch::SweepConfig grid(bool hardened_players) {
  batch::SweepConfig config;
  config.services = services::catalog();
  if (hardened_players) {
    for (std::size_t i = 0; i < config.services.size(); ++i) {
      config.services[i].player = faults::hardened(
          config.services[i].player, batch::derive_seed(0, i));
    }
  }
  config.profiles = {7};
  config.fault_scenarios.clear();
  for (const faults::Scenario& s : faults::scenario_catalog()) {
    config.fault_scenarios.push_back(s.name);
  }
  config.session_duration = 300;
  config.content_duration = 300;
  config.jobs = bench::harness_jobs();
  return config;
}

}  // namespace

int main() {
  bench::banner("Faults",
                "catalog under injected faults — default vs hardened player");

  const batch::SweepResult plain = batch::run_sweep(grid(false));
  const batch::SweepResult hard = batch::run_sweep(grid(true));
  if (plain.failed || hard.failed) {
    std::fprintf(stderr, "fault sweep failed (%d + %d cells)\n", plain.failed,
                 hard.failed);
    return 1;
  }

  Table table({"service", "scenario", "state", "stall_s", "qoe", "state+h",
               "stall_s+h", "qoe+h"});
  for (std::size_t i = 0; i < plain.cells.size(); ++i) {
    const batch::CellResult& d = plain.cells[i];
    const batch::CellResult& h = hard.cells[i];
    const core::QoeReport& dq = d.result.qoe;
    const core::QoeReport& hq = h.result.qoe;
    table.add_row(d.service, d.fault, to_string(d.result.final_state),
         format("%.1f", dq.total_stall),
         format("%.2f", core::qoe_score(dq, d.result.session_end)),
         to_string(h.result.final_state), format("%.1f", hq.total_stall),
         format("%.2f", core::qoe_score(hq, h.result.session_end)));
  }
  table.print();

  // Per-scenario means: how much of the injected damage hardening recovers.
  std::printf("\nmean QoE by scenario (default -> hardened, %zu services)\n",
              services::catalog().size());
  const std::size_t n_scenarios = faults::scenario_catalog().size();
  const std::size_t n_services = services::catalog().size();
  for (std::size_t f = 0; f < n_scenarios; ++f) {
    double sum_d = 0, sum_h = 0;
    for (std::size_t s = 0; s < n_services; ++s) {
      const batch::CellResult& d = plain.cells[s * n_scenarios + f];
      const batch::CellResult& h = hard.cells[s * n_scenarios + f];
      sum_d += core::qoe_score(d.result.qoe, d.result.session_end);
      sum_h += core::qoe_score(h.result.qoe, h.result.session_end);
    }
    std::printf("  %-14s %6.2f -> %6.2f\n",
                faults::scenario_catalog()[f].name.c_str(), sum_d / n_services,
                sum_h / n_services);
  }
  return 0;
}
