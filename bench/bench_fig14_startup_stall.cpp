// Figure 14 / §4.3: H3 stalls right after playback starts — one 9 s startup
// segment at a track above the available bandwidth — while H2 (four 2 s
// segments, similar startup seconds) does not.
#include "support.h"

#include <cstdio>

using namespace vodx;

namespace {

struct StartupOutcome {
  Seconds startup_delay = -1;
  bool early_stall = false;   ///< stalled within 30 s of playback start
  Seconds first_stall_at = -1;
};

StartupOutcome measure(const services::ServiceSpec& spec, Bps bandwidth) {
  core::SessionConfig config;
  config.spec = spec;
  config.trace = net::BandwidthTrace::constant(bandwidth, 180);
  config.session_duration = 180;
  config.content_duration = 600;
  core::SessionResult r = core::run_session(config);
  StartupOutcome out;
  out.startup_delay = r.events.startup_delay();
  for (const player::StallEvent& stall : r.events.stalls) {
    if (stall.start - r.events.playback_started < 30) {
      out.early_stall = true;
      out.first_stall_at = stall.start - r.events.playback_started;
      break;
    }
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Figure 14 / §4.3",
                "H3 stalls right after startup; H2 survives the same network");

  // The paper's Fig. 14 network: bandwidth below H3's ~1 Mbps startup track.
  Table table({"bandwidth", "service", "startup delay", "stall in first 30 s",
               "first stall after"});
  int h3_stalls = 0;
  int h2_stalls = 0;
  for (double bw_kbps : {600.0, 700.0, 800.0, 900.0}) {
    for (const char* name : {"H3", "H2"}) {
      StartupOutcome outcome =
          measure(services::service(name), bw_kbps * 1e3);
      if (outcome.early_stall) {
        (std::string(name) == "H3" ? h3_stalls : h2_stalls)++;
      }
      table.add_row(format("%.0f kbps", bw_kbps), name,
                     outcome.startup_delay >= 0
                         ? bench::fmt_secs(outcome.startup_delay)
                         : "never started",
                     outcome.early_stall ? "YES" : "no",
                     outcome.first_stall_at >= 0
                         ? bench::fmt_secs(outcome.first_stall_at)
                         : "-");
    }
  }
  table.print();

  std::printf("\n");
  bench::compare("H3 stalls soon after playback begins", "yes",
                 format("%d/4 bandwidths", h3_stalls));
  bench::compare("H2 (4 x 2 s startup segments) does not", "yes",
                 format("%d/4 bandwidths", h2_stalls));
  std::printf(
      "\nRoot cause (§4.3): H3 starts after ONE 9 s segment fetched at a\n"
      "~1 Mbps startup track and keeps that track for the second segment\n"
      "(no bandwidth history yet); at < 1 Mbps the second segment takes\n"
      "longer than 9 s, so the buffer runs dry.\n");
  return 0;
}
