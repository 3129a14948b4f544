// Figure 6: D1's video and audio download progress diverge, causing stalls
// while ~100 s of video sit in the buffer. The paper reports average A/V
// progress gaps of 69.9 s and 52.5 s on the two lowest-bandwidth profiles.
#include "support.h"

#include <cstdio>

using namespace vodx;

namespace {

struct AvStats {
  double mean_gap = 0;
  double max_gap = 0;
  Seconds stall_time = 0;
  Seconds video_buffer_at_stall = -1;
  Seconds audio_buffer_at_stall = -1;
};

AvStats measure(const services::ServiceSpec& spec, int profile) {
  core::SessionResult r = bench::run_profile(spec, profile);
  AvStats stats;
  Accumulator gap;
  for (const core::BufferSample& s : r.buffer) {
    const double g = s.video_buffer - s.audio_buffer;
    gap.add(g);
    stats.max_gap = std::max(stats.max_gap, g);
  }
  stats.mean_gap = gap.mean();
  stats.stall_time = r.events.total_stall_time(r.session_end);
  if (!r.events.stalls.empty()) {
    const Seconds stall_start = r.events.stalls.front().start;
    const std::size_t slot = static_cast<std::size_t>(stall_start);
    if (slot < r.buffer.size()) {
      stats.video_buffer_at_stall = r.buffer[slot].video_buffer;
      stats.audio_buffer_at_stall = r.buffer[slot].audio_buffer;
    }
  }
  return stats;
}

}  // namespace

int main() {
  bench::banner("Figure 6",
                "D1 audio/video download progress out of sync -> stalls");

  const services::ServiceSpec& d1 = services::service("D1");
  services::ServiceSpec synced = d1;
  synced.name = "D1-synced";
  synced.player.av_scheduling = player::AvScheduling::kSynced;

  Table table({"player", "profile", "mean V-A gap", "max gap", "stall time",
               "V/A buffered at 1st stall"});
  double gaps[2] = {0, 0};
  for (int profile : {1, 2}) {
    AvStats broken = measure(d1, profile);
    gaps[profile - 1] = broken.mean_gap;
    table.add_row("D1 (independent A/V)", std::to_string(profile),
                   bench::fmt_secs(broken.mean_gap),
                   bench::fmt_secs(broken.max_gap),
                   bench::fmt_secs(broken.stall_time),
                   broken.video_buffer_at_stall >= 0
                       ? bench::fmt_secs(broken.video_buffer_at_stall) + " / " +
                             bench::fmt_secs(broken.audio_buffer_at_stall)
                       : "-");
    AvStats repaired = measure(synced, profile);
    table.add_row("best practice (synced A/V)", std::to_string(profile),
                   bench::fmt_secs(repaired.mean_gap),
                   bench::fmt_secs(repaired.max_gap),
                   bench::fmt_secs(repaired.stall_time),
                   repaired.video_buffer_at_stall >= 0
                       ? bench::fmt_secs(repaired.video_buffer_at_stall) + " / " +
                             bench::fmt_secs(repaired.audio_buffer_at_stall)
                       : "-");
  }
  table.print();

  std::printf("\n");
  bench::compare("mean V-A gap, two lowest profiles", "69.9 s / 52.5 s",
                 bench::fmt_secs(gaps[0]) + " / " + bench::fmt_secs(gaps[1]));
  bench::compare("stalls occur with video still buffered (audio starved)",
                 "~100 s buffered", "see 'V/A buffered at 1st stall'");
  bench::compare("synchronising A/V downloads removes the gap", "suggested",
                 "see best-practice rows");
  return 0;
}
