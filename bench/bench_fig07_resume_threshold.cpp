// Figure 7: S2 resumes downloading only when the buffer has drained to 4 s,
// so a transient dip right after resuming stalls playback. Raising the
// resume threshold (the §3.3.2 best practice) removes those stalls.
#include "support.h"

#include <cstdio>

using namespace vodx;

int main() {
  bench::banner("Figure 7", "S2's 4 s resume threshold causes stalls");

  const services::ServiceSpec& s2 = services::service("S2");
  services::ServiceSpec raised = s2;
  raised.name = "S2-resume20";
  raised.player.resuming_threshold = 20;

  Table table({"profile", "S2 stalls", "S2 stall time", "resume=20 stalls",
               "resume=20 stall time"});
  int stalls_s2 = 0;
  int stalls_fixed = 0;
  for (int profile = 2; profile <= 7; ++profile) {
    core::SessionResult broken = bench::run_profile(s2, profile);
    core::SessionResult repaired = bench::run_profile(raised, profile);
    stalls_s2 += static_cast<int>(broken.events.stalls.size());
    stalls_fixed += static_cast<int>(repaired.events.stalls.size());
    table.add_row(std::to_string(profile),
         std::to_string(broken.events.stalls.size()),
         bench::fmt_secs(broken.events.total_stall_time(broken.session_end)),
         std::to_string(repaired.events.stalls.size()),
         bench::fmt_secs(
             repaired.events.total_stall_time(repaired.session_end)));
  }
  table.print();

  // The Figure-7 timeline itself: buffer around one pause/resume cycle.
  std::printf("\nS2 buffer timeline on profile 4 (1 Hz, first 120 s):\n");
  core::SessionResult timeline = bench::run_profile(s2, 4);
  for (std::size_t i = 0; i < timeline.buffer.size() && i <= 120; i += 6) {
    std::printf("  t=%3ds buffer=%5.1fs%s\n",
                static_cast<int>(timeline.buffer[i].wall),
                timeline.buffer[i].video_buffer,
                timeline.buffer[i].video_buffer < 5 ? "  <- danger zone" : "");
  }

  std::printf("\n");
  bench::compare("S2 stalls more often than with a higher resume threshold",
                 "yes", format("%d vs %d stalls over profiles 2-7", stalls_s2,
                               stalls_fixed));
  return 0;
}
