// §3.3.2 energy claim, quantified: "8 apps set the two thresholds within
// 10 s of each other. As this is shorter than the LTE RRC demotion timer,
// the cellular radio will stay in high energy mode during this entire pause
// ... We suggest setting the difference of the two thresholds larger than
// the LTE RRC demotion timer in order to save device energy."
//
// For every service: replay a steady-bandwidth session's wire activity
// through a 3-state RRC model, then re-run the same service with its resume
// threshold lowered so the pause/resume gap clears the demotion timer.
#include "support.h"

#include <cstdio>

#include "core/radio_energy.h"

using namespace vodx;

namespace {

core::RadioEnergyReport run_energy(const services::ServiceSpec& spec) {
  core::SessionConfig config;
  config.spec = spec;
  config.trace = net::BandwidthTrace::constant(10 * kMbps, 600);
  config.session_duration = 600;
  config.content_duration = 600;
  core::SessionResult r = core::run_session(config);
  return core::radio_energy(r.traffic, r.session_end);
}

}  // namespace

int main() {
  bench::banner("§3.3.2 ablation",
                "pause/resume threshold gap vs LTE radio energy");

  std::printf("RRC model: demotion timer %.0f s, active %.1f W, tail %.1f W, "
              "idle %.2f W\n\n",
              core::kDemotionTimer, core::kActiveWatts, core::kTailWatts,
              core::kIdleWatts);

  Table table({"svc", "gap (s)", "gap > timer?", "high-power time",
               "energy (J)", "energy, widened gap", "saving"});
  int below_timer = 0;
  for (const services::ServiceSpec& spec : services::catalog()) {
    const Seconds gap =
        spec.player.pausing_threshold - spec.player.resuming_threshold;
    if (gap <= core::kDemotionTimer) ++below_timer;

    core::RadioEnergyReport as_shipped = run_energy(spec);

    // The suggested fix: widen the gap past the demotion timer (and keep the
    // resume threshold sane).
    services::ServiceSpec widened = spec;
    widened.player.resuming_threshold = std::max(
        8.0, spec.player.pausing_threshold - (core::kDemotionTimer + 9));
    core::RadioEnergyReport fixed = run_energy(widened);

    const double saving =
        as_shipped.energy_joules > 0
            ? 1.0 - fixed.energy_joules / as_shipped.energy_joules
            : 0;
    table.add_row(spec.name, format("%.0f", gap),
                   gap > core::kDemotionTimer ? "yes" : "NO",
                   bench::fmt_pct(as_shipped.high_power_fraction()),
                   format("%.0f", as_shipped.energy_joules),
                   format("%.0f", fixed.energy_joules),
                   bench::fmt_pct(saving));
  }
  table.print();

  std::printf("\n");
  bench::compare("services with threshold gap below the RRC timer", "8",
                 std::to_string(below_timer));
  bench::compare("widening the gap saves radio energy", "suggested",
                 "see 'saving' column");
  return 0;
}
