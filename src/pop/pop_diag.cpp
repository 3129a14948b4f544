#include "pop/pop_diag.h"

#include <algorithm>
#include <cmath>

#include "pop/pop_timeline.h"

namespace vodx::pop {

std::vector<obs::Event> fair_share_capacity_events(
    const obs::Timeline& timeline) {
  std::vector<obs::Event> events;
  const int capacity = timeline.find("capacity_mbit");
  const int concurrent = timeline.find("concurrent");
  if (capacity < 0 || concurrent < 0 || timeline.bin_width() <= 0) {
    return events;
  }
  events.reserve(static_cast<std::size_t>(timeline.bin_count()));
  for (int bin = 0; bin < timeline.bin_count(); ++bin) {
    const double capacity_mbps =
        timeline.value(capacity, bin) / timeline.bin_width();
    const double share =
        capacity_mbps / std::max(1.0, timeline.value(concurrent, bin));
    obs::Event event;
    event.sim_time = timeline.bin_start(bin);
    event.seq = static_cast<std::uint64_t>(bin);
    event.category = obs::Category::kLink;
    event.kind = obs::EventKind::kCounter;
    event.name = "link.capacity_mbps";
    event.fields.push_back(obs::Field::n("value", share));
    events.push_back(std::move(event));
  }
  return events;
}

diag::Diagnosis diagnose_session(
    const core::SessionResult& result, const obs::Observer& observer,
    const std::vector<obs::Event>& capacity_events,
    const diag::DiagOptions& options) {
  const std::vector<obs::Event> trace = observer.trace.snapshot();
  std::vector<obs::Event> merged;
  merged.reserve(trace.size() + capacity_events.size());
  // std::merge is stable and prefers the first range on ties, so a bin's
  // share precedes same-instant session events.
  std::merge(capacity_events.begin(), capacity_events.end(), trace.begin(),
             trace.end(), std::back_inserter(merged),
             [](const obs::Event& a, const obs::Event& b) {
               return a.sim_time < b.sim_time;
             });
  diag::Diagnosis diagnosis = diag::diagnose(result, merged, {}, options);
  diagnosis.trace_dropped = observer.trace.dropped();
  return diagnosis;
}

void fold_blame_bins(obs::Timeline& timeline,
                     const diag::Diagnosis& diagnosis) {
  if (timeline.bin_width() <= 0) return;
  int blame_series[diag::kCauseCount];
  for (int c = 0; c < diag::kCauseCount; ++c) {
    blame_series[c] = timeline.add_series(blame_series_name(c),
                                          obs::Timeline::Fold::kSum);
  }
  for (const diag::IntervalDiagnosis& interval : diagnosis.intervals) {
    for (const diag::BlameSpan& span : interval.spans) {
      if (span.end <= span.start) continue;
      const int series = blame_series[static_cast<int>(span.cause)];
      const int first = timeline.bin_index(span.start);
      // bin_index clamps, so a span tail past the horizon folds into the
      // final bin rather than vanishing.
      const int last = timeline.bin_index(span.end - 1e-12);
      for (int bin = first; bin <= last; ++bin) {
        const Seconds bin_start = timeline.bin_start(bin);
        const Seconds bin_end = bin_start + timeline.bin_width();
        const Seconds overlap = (bin == last ? span.end
                                             : std::min(span.end, bin_end)) -
                                std::max(span.start, bin_start);
        if (overlap > 0) timeline.add(series, bin, overlap);
      }
    }
  }
}

}  // namespace vodx::pop
