// Figure 8: D1's selected track never stabilises even at a constant
// 500 kbps, oscillating across non-consecutive tracks while other services
// converge.
#include "support.h"

#include <cmath>
#include <cstdio>
#include <map>

using namespace vodx;

namespace {

core::SessionResult constant_run(const services::ServiceSpec& spec, Bps bw) {
  core::SessionConfig config;
  config.spec = spec;
  config.trace = net::BandwidthTrace::constant(bw, 600);
  config.session_duration = 600;
  config.content_duration = 600;
  return core::run_session(config);
}

}  // namespace

int main() {
  bench::banner("Figure 8",
                "D1 track selection at constant 500 kbps never stabilises");

  const Bps bw = 500e3;
  core::SessionResult d1 = constant_run(services::service("D1"), bw);

  std::printf("D1 downloaded video segments (declared bitrate over time):\n");
  int printed = 0;
  for (const core::SegmentDownload& d : d1.traffic.downloads) {
    if (d.type != media::ContentType::kVideo || d.aborted) continue;
    if (d.requested_at < 60) continue;  // skip startup
    if (++printed > 40) break;
    std::printf("  t=%5.1fs  track=%d  declared=%4.0f kbps  %s\n",
                d.requested_at, d.level, d.declared_bitrate / 1e3,
                std::string(static_cast<std::size_t>(d.level + 1), '#')
                    .c_str());
  }

  Table table({"service", "steady switches", "distinct tracks",
               "non-consec. switches", "converged"});
  for (const char* name : {"D1", "H1", "D2", "S2"}) {
    core::SessionResult r = constant_run(services::service(name), bw);
    std::map<int, int> levels;
    int switches = 0;
    int jumps = 0;
    int previous = -1;
    for (const core::SegmentDownload& d : r.traffic.downloads) {
      if (d.type != media::ContentType::kVideo || d.aborted ||
          d.requested_at < 120) {
        continue;
      }
      ++levels[d.level];
      if (previous >= 0 && d.level != previous) {
        ++switches;
        if (std::abs(d.level - previous) > 1) ++jumps;
      }
      previous = d.level;
    }
    table.add_row(name, std::to_string(switches),
                   std::to_string(levels.size()), std::to_string(jumps),
                   levels.size() <= 1 ? "Y" : "N");
  }
  std::printf("\n");
  table.print();

  std::printf("\n");
  bench::compare("D1 keeps switching at constant bandwidth", "yes",
                 "see switches column");
  bench::compare("other services converge to a single track", "yes",
                 "H1/D2/S2 rows");
  return 0;
}
