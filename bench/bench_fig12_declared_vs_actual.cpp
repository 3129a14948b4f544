// Figure 12 / §4.2: the manifest-modification probe that proves D2 selects
// tracks by declared bitrate only. Two MPD variants with the same declared
// ladder but actual bitrates shifted by one rung are served through the
// proxy; D2 picks the same declared bitrate in both, and its bandwidth
// utilisation at a stable 2 Mbps stays far below the link rate (paper:
// 33.7%).
#include "support.h"

#include <cstdio>

#include "core/blackbox.h"

using namespace vodx;

int main() {
  bench::banner("Figure 12 / §4.2",
                "declared-vs-actual manifest probe against D2");

  const services::ServiceSpec& d2 = services::service("D2");

  Table table({"bandwidth", "variant 1 selected", "variant 2 selected",
               "same declared?"});
  bool all_same = true;
  for (double bw_mbps : {1.0, 1.5, 2.0, 3.0}) {
    core::DeclaredVsActualProbe probe =
        core::probe_declared_vs_actual(
            d2, {.bandwidth = bw_mbps * 1e6, .duration = 420});
    all_same = all_same && probe.declared_only;
    table.add_row(format("%.1f Mbps", bw_mbps),
                   bench::fmt_mbps(probe.selected_declared_variant1) + " Mbps",
                   bench::fmt_mbps(probe.selected_declared_variant2) + " Mbps",
                   probe.declared_only ? "yes" : "NO");
  }
  table.print();

  core::DeclaredVsActualProbe at2 =
      core::probe_declared_vs_actual(d2, {.bandwidth = 2 * kMbps});

  std::printf("\n");
  bench::compare("selected tracks identical across variants", "yes",
                 all_same ? "yes" : "no");
  bench::compare("=> player reads only the declared bitrate", "confirmed",
                 all_same ? "confirmed" : "refuted");
  bench::compare("bandwidth utilisation at stable 2 Mbps", "33.7%",
                 bench::fmt_pct(at2.bandwidth_utilization));

  // Contrast: an actual-bitrate-aware player would expose the shift.
  services::ServiceSpec aware = d2;
  aware.name = "D2-actual-aware";
  aware.player.use_actual_bitrate = true;
  core::DeclaredVsActualProbe aware_probe =
      core::probe_declared_vs_actual(
          aware, {.bandwidth = 2 * kMbps, .duration = 420});
  std::printf("\n");
  bench::compare("actual-aware control picks different declared bitrates",
                 "(implied)", aware_probe.declared_only ? "no" : "yes");
  bench::compare("actual-aware control's utilisation at 2 Mbps", "(higher)",
                 bench::fmt_pct(aware_probe.bandwidth_utilization));
  return 0;
}
