#include "core/qoe.h"

#include <algorithm>
#include <cmath>

namespace vodx::core {

double QoeReport::fraction_at_or_below(int height) const {
  if (displayed_time <= 0) return 0;
  Seconds below = 0;
  for (const auto& [h, secs] : time_by_height) {
    if (h <= height) below += secs;
  }
  return below / displayed_time;
}

QoeReport compute_qoe(const AnalyzedTraffic& traffic, const UiInference& ui,
                      Seconds session_end, const QoeOptions& options) {
  QoeReport report;
  report.startup_delay = ui.startup_delay;
  report.total_stall = ui.total_stall;
  report.stall_count = static_cast<int>(ui.stalls.size());
  report.total_bytes = traffic.total_payload_bytes;

  for (const SegmentDownload& d : traffic.downloads) {
    report.media_bytes += d.bytes;
  }
  if (traffic.video_tracks.empty()) return report;

  const Seconds final_position =
      ui.samples.empty()
          ? 0
          : static_cast<Seconds>(ui.samples.back().progress);

  // Reconstruct which rendition of every index actually rendered: the last
  // download of that index completed before its play time wins (§4.1.1 —
  // only the most recent download stays in the buffer). One pass: the
  // candidate downloads are sorted by index, stably so that ties keep the
  // first in the log; the segment start is a running sum; and the (1 Hz,
  // integer) UI samples are read through a forward pointer.
  const AnalyzedTrack& reference = traffic.video_tracks.front();
  const int segment_count =
      static_cast<int>(reference.segment_durations.size());
  std::vector<const SegmentDownload*> winners(
      static_cast<std::size_t>(segment_count), nullptr);

  std::vector<const SegmentDownload*> candidates;
  for (const SegmentDownload& d : traffic.downloads) {
    if (d.type == media::ContentType::kVideo && d.index >= 0 &&
        d.index < segment_count && !d.aborted && d.completed_at >= 0) {
      candidates.push_back(&d);
    }
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const SegmentDownload* a, const SegmentDownload* b) {
                     return a->index < b->index;
                   });

  Seconds seg_start = 0;  // AnalyzedTrack::segment_start(index), summed
  std::size_t sample = 0;
  std::size_t next = 0;  // first candidate of this index
  for (int index = 0; index < segment_count; ++index) {
    if (index > 0) {
      seg_start +=
          reference.segment_durations[static_cast<std::size_t>(index - 1)];
    }
    if (seg_start >= final_position - 1e-9) break;
    // First wall time at which the playing position reached seg_start; -1
    // if it never did. seg_start only grows, so no sample before the
    // pointer can be the first to reach it.
    while (sample < ui.samples.size() &&
           static_cast<Seconds>(ui.samples[sample].progress) <
               seg_start - 1e-9) {
      ++sample;
    }
    const Seconds play_wall =
        sample < ui.samples.size() ? ui.samples[sample].wall : -1;
    const SegmentDownload* winner = nullptr;
    const SegmentDownload* earliest = nullptr;
    for (; next < candidates.size() && candidates[next]->index == index;
         ++next) {
      const SegmentDownload& d = *candidates[next];
      if (earliest == nullptr || d.completed_at < earliest->completed_at) {
        earliest = &d;
      }
      if (play_wall >= 0 && d.completed_at <= play_wall + 1.0) {
        if (winner == nullptr || d.completed_at > winner->completed_at) {
          winner = &d;
        }
      }
    }
    if (winner == nullptr) winner = earliest;
    if (winner == nullptr) continue;
    winners[static_cast<std::size_t>(index)] = winner;

    DisplayedSegment shown;
    shown.index = index;
    shown.level = winner->level;
    shown.declared_bitrate = winner->declared_bitrate;
    shown.resolution = winner->resolution;
    const Seconds seg_end = seg_start + winner->duration;
    shown.seconds_shown = std::min(seg_end, final_position) - seg_start;
    shown.play_wall = play_wall;
    if (shown.seconds_shown <= 0) continue;
    report.displayed.push_back(shown);
  }

  // Quality aggregates.
  double bitrate_weighted = 0;
  for (const DisplayedSegment& s : report.displayed) {
    report.displayed_time += s.seconds_shown;
    bitrate_weighted += s.declared_bitrate * s.seconds_shown;
    report.time_by_height[s.resolution.height] += s.seconds_shown;
  }
  if (report.displayed_time > 0) {
    report.average_declared_bitrate = bitrate_weighted / report.displayed_time;
  }
  report.low_quality_fraction =
      report.fraction_at_or_below(options.low_quality_max_height);

  // Switches.
  for (std::size_t i = 1; i < report.displayed.size(); ++i) {
    const int delta =
        std::abs(report.displayed[i].level - report.displayed[i - 1].level);
    if (delta > 0) ++report.switch_count;
    if (delta > 1) ++report.nonconsecutive_switch_count;
  }

  // Waste: aborted transfers plus downloads that never rendered.
  for (const SegmentDownload& d : traffic.downloads) {
    if (d.aborted) {
      report.wasted_bytes += d.bytes;
      continue;
    }
    if (d.type != media::ContentType::kVideo) continue;
    if (d.index < 0 || d.index >= segment_count) continue;
    const SegmentDownload* winner =
        winners[static_cast<std::size_t>(d.index)];
    if (winner != nullptr && winner != &d) report.wasted_bytes += d.bytes;
  }

  (void)session_end;
  return report;
}

double qoe_score(const QoeReport& report, Seconds session_length,
                 const QoeScoreWeights& weights) {
  if (report.displayed_time <= 0 || session_length <= 0) return 0;
  // Concave (logarithmic) bitrate utility, time-weighted over what was
  // actually displayed.
  double utility = 0;
  for (const DisplayedSegment& s : report.displayed) {
    const double ratio =
        std::max(0.1, s.declared_bitrate / weights.reference_bitrate);
    utility += std::log2(ratio) * s.seconds_shown;
  }
  utility /= report.displayed_time;

  const double stall_fraction = report.total_stall / session_length;
  const double switches_per_minute =
      report.switch_count / (report.displayed_time / 60.0);
  const double startup =
      report.startup_delay > 0 ? report.startup_delay : 0;

  return utility - weights.stall_penalty * stall_fraction -
         weights.startup_penalty * startup -
         weights.switch_penalty * switches_per_minute;
}

}  // namespace vodx::core
