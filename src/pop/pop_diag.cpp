#include "pop/pop_diag.h"

#include <algorithm>
#include <cmath>

#include "pop/pop_timeline.h"

namespace vodx::pop {

std::vector<diag::Step> fair_share_capacity(const obs::Timeline& timeline) {
  std::vector<diag::Step> steps;
  const int capacity = timeline.find("capacity_mbit");
  const int concurrent = timeline.find("concurrent");
  if (capacity < 0 || concurrent < 0 || timeline.bin_width() <= 0) {
    return steps;
  }
  steps.reserve(static_cast<std::size_t>(timeline.bin_count()));
  for (int bin = 0; bin < timeline.bin_count(); ++bin) {
    const double capacity_mbps =
        timeline.value(capacity, bin) / timeline.bin_width();
    steps.push_back(
        {timeline.bin_start(bin),
         capacity_mbps / std::max(1.0, timeline.value(concurrent, bin))});
  }
  return steps;
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
