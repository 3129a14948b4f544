// Figure 13 / §4.2: track selection using actual segment bitrates instead of
// the declared (peak) bitrate, on the reference player over the 14 profiles.
//
// Paper: median average-bitrate improvement 10.22%; on the 3 lowest-
// bandwidth profiles the time on the lowest track drops by >= 43.4%; stall
// duration essentially unchanged.
#include "support.h"

#include <cstdio>

using namespace vodx;

int main() {
  bench::banner("Figure 13 / §4.2",
                "declared-only vs actual-bitrate-aware track selection");

  services::ServiceSpec declared_only = bench::reference_player_spec();
  services::ServiceSpec actual_aware = declared_only;
  actual_aware.name = "EXO-actual";
  actual_aware.player.use_actual_bitrate = true;

  std::vector<core::SessionResult> base = bench::run_all_profiles(declared_only);
  std::vector<core::SessionResult> aware = bench::run_all_profiles(actual_aware);

  Table table({"profile", "avg bitrate (decl)", "avg bitrate (actual)",
               "gain", "lowest-track time (decl)", "lowest-track time (act)",
               "stall (decl)", "stall (act)"});
  std::vector<double> gains;
  std::vector<double> lowest_reduction_low3;
  Seconds stall_base_total = 0;
  Seconds stall_aware_total = 0;
  for (int i = 0; i < trace::kProfileCount; ++i) {
    const core::QoeReport& q0 = base[static_cast<std::size_t>(i)].qoe;
    const core::QoeReport& q1 = aware[static_cast<std::size_t>(i)].qoe;
    const double gain =
        q0.average_declared_bitrate > 0
            ? q1.average_declared_bitrate / q0.average_declared_bitrate - 1
            : 0;
    gains.push_back(gain);

    // Time displayed on the lowest rung (height 240p in the reference
    // ladder).
    auto lowest_time = [](const core::QoeReport& q) {
      auto it = q.time_by_height.find(240);
      return it == q.time_by_height.end() ? 0.0 : it->second;
    };
    const double low0 = lowest_time(q0);
    const double low1 = lowest_time(q1);
    if (i < 3 && low0 > 0) {
      lowest_reduction_low3.push_back(1.0 - low1 / low0);
    }
    stall_base_total += q0.total_stall;
    stall_aware_total += q1.total_stall;
    table.add_row(std::to_string(i + 1),
                   bench::fmt_mbps(q0.average_declared_bitrate) + " Mbps",
                   bench::fmt_mbps(q1.average_declared_bitrate) + " Mbps",
                   bench::fmt_pct(gain), bench::fmt_secs(low0),
                   bench::fmt_secs(low1), bench::fmt_secs(q0.total_stall),
                   bench::fmt_secs(q1.total_stall));
  }
  table.print();

  std::printf("\n");
  bench::compare("median avg-bitrate improvement", "10.22%",
                 bench::fmt_pct(median(gains), 2));
  bench::compare("lowest-track time reduction, 3 lowest profiles",
                 ">= 43.4%",
                 lowest_reduction_low3.empty()
                     ? "-"
                     : bench::fmt_pct(mean(lowest_reduction_low3)));
  bench::compare("total stall time (declared vs actual)", "~unchanged",
                 bench::fmt_secs(stall_base_total) + " vs " +
                     bench::fmt_secs(stall_aware_total));
  return 0;
}
