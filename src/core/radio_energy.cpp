#include "core/radio_energy.h"

#include <algorithm>

namespace vodx::core {

namespace {

/// Merges the session's media transfer intervals into disjoint busy spans.
/// (Manifest fetches happen once at startup and are negligible here.)
std::vector<std::pair<Seconds, Seconds>> busy_spans(
    const AnalyzedTraffic& traffic, Seconds session_end) {
  std::vector<std::pair<Seconds, Seconds>> spans =
      traffic.media_transfer_intervals;
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<Seconds, Seconds>> merged;
  for (auto [start, end] : spans) {
    end = std::min(std::max(end, start), session_end);
    start = std::min(start, session_end);
    if (!merged.empty() && start <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, end);
    } else {
      merged.emplace_back(start, end);
    }
  }
  return merged;
}

}  // namespace

RadioEnergyReport radio_energy(const AnalyzedTraffic& traffic,
                               Seconds session_end) {
  RadioEnergyReport report;
  const auto spans = busy_spans(traffic, session_end);

  Seconds cursor = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto [start, end] = spans[i];
    // Gap before this span: tail up to the demotion timer, then idle.
    if (start > cursor) {
      const Seconds gap = start - cursor;
      report.tail_time += std::min(gap, kDemotionTimer);
      report.idle_time += std::max(0.0, gap - kDemotionTimer);
    }
    report.active_time += end - start;
    cursor = std::max(cursor, end);
  }
  if (session_end > cursor) {
    const Seconds gap = session_end - cursor;
    report.tail_time += std::min(gap, kDemotionTimer);
    report.idle_time += std::max(0.0, gap - kDemotionTimer);
  }

  report.energy_joules = report.active_time * kActiveWatts +
                         report.tail_time * kTailWatts +
                         report.idle_time * kIdleWatts;
  return report;
}

}  // namespace vodx::core
