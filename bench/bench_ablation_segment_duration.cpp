// §3.1 leaves "a deeper analysis on characterizing the [segment duration]
// tradeoffs to future work". This ablation runs it: the same reference
// player with segment durations from 2 s to 12 s, over the 14 profiles.
//
// Expected tradeoff (paper's framing): short segments adapt in finer
// granularity (fewer stalls, quicker track convergence) but cost more
// requests (server load, per-request overhead); long segments improve
// encoding/server efficiency but adapt sluggishly and make 1-segment
// startups dangerous (§4.3).
#include "support.h"

#include <cstdio>

using namespace vodx;

int main() {
  bench::banner("§3.1 ablation", "segment duration tradeoffs");

  Table table({"segment dur", "median bitrate", "total stalls", "switches",
               "startup (mean)", "requests", "data"});
  for (double seg_dur : {2.0, 4.0, 6.0, 9.0, 12.0}) {
    services::ServiceSpec spec = bench::reference_player_spec();
    spec.segment_duration = seg_dur;
    spec.audio_segment_duration = seg_dur;
    spec.player.startup_buffer = 2 * seg_dur;  // constant 2-segment startup

    std::vector<double> bitrates;
    double stalls = 0;
    int switches = 0;
    double startup_sum = 0;
    long requests = 0;
    double data_mb = 0;
    for (core::SessionResult& r : bench::run_all_profiles(spec)) {
      bitrates.push_back(r.qoe.average_declared_bitrate);
      stalls += r.qoe.total_stall;
      switches += r.qoe.switch_count;
      startup_sum += r.qoe.startup_delay;
      requests += static_cast<long>(r.traffic.media_transfer_intervals.size());
      data_mb += static_cast<double>(r.qoe.total_bytes) / 1e6;
    }
    table.add_row(format("%.0f s", seg_dur),
                   bench::fmt_mbps(median(bitrates)) + " Mbps",
                   bench::fmt_secs(stalls), std::to_string(switches),
                   bench::fmt_secs(startup_sum / trace::kProfileCount),
                   std::to_string(requests), format("%.0f MB", data_mb));
  }
  table.print();

  std::printf("\n");
  bench::compare("short segments -> more requests (server load)",
                 "qualitative", "see 'requests' column");
  bench::compare("long segments -> more stall time under variability",
                 "qualitative", "see 'total stalls' column");
  return 0;
}
