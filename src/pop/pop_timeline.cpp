#include "pop/pop_timeline.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/report.h"
#include "common/strings.h"
#include "common/table.h"
#include "diag/cause.h"
#include "pop/population.h"

namespace vodx::pop {

namespace {

constexpr const char* kRungNames[kRungBuckets] = {
    "rung_0", "rung_1", "rung_2", "rung_3", "rung_4", "rung_5",
};

// diag::Cause order (cause.h); blame columns exist only on diagnosed runs.
constexpr const char* kBlameNames[] = {
    "blame_fault",   "blame_restart", "blame_failover",
    "blame_cache_miss", "blame_origin",  "blame_deficit",
    "blame_abr",     "blame_pacing",  "blame_unknown",
};
static_assert(std::size(kBlameNames) == diag::kCauseCount,
              "one blame column per diag::Cause, in enum order");

}  // namespace

const char* blame_series_name(int cause_index) {
  VODX_ASSERT(cause_index >= 0 &&
                  cause_index < static_cast<int>(std::size(kBlameNames)),
              "blame cause index out of range");
  return kBlameNames[cause_index];
}

int timeline_bin_count(Seconds horizon, Seconds bin_width) {
  VODX_ASSERT(bin_width > 0, "timeline bin width must be positive");
  return std::max(1, static_cast<int>(std::ceil(horizon / bin_width - 1e-9)));
}

obs::Timeline make_tower_timeline(Seconds bin_width, Seconds horizon,
                                  bool with_blame) {
  obs::Timeline timeline(bin_width, timeline_bin_count(horizon, bin_width));
  using Fold = obs::Timeline::Fold;
  timeline.add_series("arrivals", Fold::kSum);
  timeline.add_series("departures", Fold::kSum);
  timeline.add_series("capacity_mbit", Fold::kSum);
  timeline.add_series("concurrent", Fold::kSum);
  timeline.add_series("stalled", Fold::kSum);
  timeline.add_series("in_startup", Fold::kSum);
  for (const char* name : kRungNames) timeline.add_series(name, Fold::kSum);
  timeline.add_series("delivered_mbit", Fold::kSum);
  if (with_blame) {
    for (const char* name : kBlameNames) timeline.add_series(name, Fold::kSum);
  }
  return timeline;
}

void record_schedule(obs::Timeline& timeline,
                     const std::vector<Arrival>& arrivals, Seconds horizon) {
  const int arrivals_series = timeline.add_series(
      "arrivals", obs::Timeline::Fold::kSum);
  const int departures_series = timeline.add_series(
      "departures", obs::Timeline::Fold::kSum);
  for (const Arrival& arrival : arrivals) {
    if (arrival.at >= horizon) continue;
    timeline.add(arrivals_series, timeline.bin_index(arrival.at), 1.0);
    const Seconds depart = std::min(arrival.at + arrival.watch, horizon);
    // Sessions still live at the horizon are folded in-place, not departed.
    if (depart < horizon) {
      timeline.add(departures_series, timeline.bin_index(depart), 1.0);
    }
  }
}

void record_capacity(obs::Timeline& timeline, const net::BandwidthTrace& trace,
                     Seconds horizon) {
  const int capacity_series = timeline.add_series(
      "capacity_mbit", obs::Timeline::Fold::kSum);
  for (int bin = 0; bin < timeline.bin_count(); ++bin) {
    const Seconds start = timeline.bin_start(bin);
    const Seconds end =
        std::min(horizon, timeline.bin_start(bin) + timeline.bin_width());
    if (end <= start) break;
    timeline.set(capacity_series, bin, trace.bits_between(start, end) / 1e6);
  }
}

TowerSampler::TowerSampler(obs::Timeline& timeline, net::Link& link,
                           SampleFn fn)
    : timeline_(timeline), link_(link), fn_(std::move(fn)) {
  concurrent_ = timeline_.add_series("concurrent", obs::Timeline::Fold::kSum);
  stalled_ = timeline_.add_series("stalled", obs::Timeline::Fold::kSum);
  in_startup_ = timeline_.add_series("in_startup", obs::Timeline::Fold::kSum);
  delivered_ =
      timeline_.add_series("delivered_mbit", obs::Timeline::Fold::kSum);
  for (int r = 0; r < kRungBuckets; ++r) {
    rung_[r] = timeline_.add_series(kRungNames[r], obs::Timeline::Fold::kSum);
  }
}

void TowerSampler::close_bin() {
  const int bin = closed_;
  const LiveSample sample = fn_();
  timeline_.set(concurrent_, bin, sample.concurrent);
  timeline_.set(stalled_, bin, sample.stalled);
  timeline_.set(in_startup_, bin, sample.in_startup);
  for (int r = 0; r < kRungBuckets; ++r) {
    timeline_.set(rung_[r], bin, sample.rung[r]);
  }
  const Bytes delivered = link_.total_delivered();
  timeline_.set(delivered_, bin,
                static_cast<double>(delivered - last_delivered_) * 8.0 / 1e6);
  last_delivered_ = delivered;
  ++closed_;
}

void TowerSampler::tick(Seconds now, Seconds dt) {
  (void)dt;
  // The 1e-9 forgiveness matches the simulator's wake slack: the grid tick
  // nearest a bin boundary may sit a hair below k * bin_width.
  while (closed_ < timeline_.bin_count() &&
         now + 1e-9 >= timeline_.bin_start(closed_) + timeline_.bin_width()) {
    close_bin();
  }
}

Seconds TowerSampler::next_wake(Seconds now) {
  (void)now;
  if (closed_ >= timeline_.bin_count()) return kNeverWakes;
  return timeline_.bin_start(closed_) + timeline_.bin_width();
}

void TowerSampler::finalize(Seconds end) {
  (void)end;
  // run_until's accumulated `now += tick` recurrence can stop one float ulp
  // short of the horizon, in which case the final boundary tick never ran.
  // Nothing fires after the last executed tick, so closing late reads the
  // same frozen state that tick would have seen.
  while (closed_ < timeline_.bin_count()) close_bin();
}

// --- Population exports ----------------------------------------------------

namespace {

/// A series' bins, zeros when the timeline lacks it.
std::vector<double> series_values(const obs::Timeline& timeline,
                                  const char* name) {
  const int index = timeline.find(name);
  if (index < 0) return std::vector<double>(timeline.bin_count(), 0.0);
  return timeline.series(index).bins;
}

/// The derived ratios of every bin of one timeline: stalled_frac =
/// stalled / max(1, concurrent) and utilization = delivered / capacity (0 on
/// an idle bin).
struct DerivedSeries {
  std::vector<double> stalled_frac, utilization;
};

DerivedSeries derived_series(const obs::Timeline& timeline) {
  const std::vector<double> concurrent =
      series_values(timeline, "concurrent");
  const std::vector<double> stalled = series_values(timeline, "stalled");
  const std::vector<double> delivered =
      series_values(timeline, "delivered_mbit");
  const std::vector<double> capacity =
      series_values(timeline, "capacity_mbit");
  DerivedSeries out{std::vector<double>(concurrent.size(), 0.0),
                    std::vector<double>(concurrent.size(), 0.0)};
  for (std::size_t bin = 0; bin < concurrent.size(); ++bin) {
    out.stalled_frac[bin] = stalled[bin] / std::max(1.0, concurrent[bin]);
    if (capacity[bin] > 0) {
      out.utilization[bin] = delivered[bin] / capacity[bin];
    }
  }
  return out;
}

/// Visits every exported row: each tower by index, then the merged
/// population timeline under the key "pop".
void for_each_row(const PopulationReport& report,
                  const std::function<void(const std::string& key,
                                           const obs::Timeline&)>& fn) {
  for (std::size_t i = 0; i < report.towers.size(); ++i) {
    if (report.towers[i].timeline.empty()) continue;
    fn(format("%zu", i), report.towers[i].timeline);
  }
  if (!report.timeline.empty()) fn("pop", report.timeline);
}

/// One row per bin of every exported timeline. The merged timeline carries
/// the union schema; its series order is the canonical column order for
/// every row, and a series a row lacks exports as 0.
Table timeline_table(const PopulationReport& report) {
  const std::vector<obs::Timeline::Series>& schema = report.timeline.all();
  Table table({"tower"});
  table.add_column("bin", Format::integer());
  table.add_column("t_start_s", Format::fixed(3));
  for (const obs::Timeline::Series& series : schema) {
    table.add_column(series.name, Format::general(6));
  }
  table.add_column("stalled_frac", Format::general(6));
  table.add_column("utilization", Format::general(6));
  for_each_row(report, [&](const std::string& key,
                           const obs::Timeline& timeline) {
    std::vector<int> columns;  // -1: absent
    for (const obs::Timeline::Series& series : schema) {
      columns.push_back(timeline.find(series.name));
    }
    const DerivedSeries derived = derived_series(timeline);
    for (int bin = 0; bin < timeline.bin_count(); ++bin) {
      table.add(key).add(bin).add(timeline.bin_start(bin));
      for (const int index : columns) {
        table.add(index >= 0 ? timeline.value(index, bin) : 0.0);
      }
      table.add(derived.stalled_frac[bin]).add(derived.utilization[bin]);
    }
  });
  return table;
}

}  // namespace

std::string population_timeline_csv(const PopulationReport& report) {
  return timeline_table(report).csv();
}

std::string population_timeline_jsonl(const PopulationReport& report) {
  return timeline_table(report).jsonl();
}

namespace {

/// Inline-SVG sparkline: values normalised to their own max, rendered as a
/// polyline (flat baseline when the series never rises above zero).
std::string sparkline(const std::vector<double>& values, const char* color) {
  constexpr double kWidth = 240, kHeight = 36, kPad = 2;
  double peak = 0;
  for (double v : values) peak = std::max(peak, v);
  std::string points;
  const int n = std::max<std::size_t>(values.size(), 2);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double x = kPad + (kWidth - 2 * kPad) * static_cast<double>(i) /
                                static_cast<double>(n - 1);
    const double frac = peak > 0 ? values[i] / peak : 0;
    const double y = kHeight - kPad - (kHeight - 2 * kPad) * frac;
    if (!points.empty()) points += ' ';
    points += format("%.1f,%.1f", x, y);
  }
  return format(
      "<svg class=\"spark\" width=\"%.0f\" height=\"%.0f\" "
      "viewBox=\"0 0 %.0f %.0f\"><polyline fill=\"none\" stroke=\"%s\" "
      "stroke-width=\"1.5\" points=\"%s\"/></svg>"
      "<span class=\"peak\">%.3g</span>",
      kWidth, kHeight, kWidth, kHeight, color, points.c_str(), peak);
}

}  // namespace

std::string population_timeline_html(const PopulationReport& report) {
  std::string out = html_page_start("vodx population timeline");
  out += format("<p>%zu tower(s), bin width %.3g s, %d bin(s)</p>\n",
                report.towers.size(), report.timeline.bin_width(),
                report.timeline.bin_count());
  out += "<table>\n<tr><th>tower</th><th>concurrent</th>"
         "<th>stalled frac</th><th>utilization</th><th>arrivals</th></tr>\n";
  for_each_row(report, [&](const std::string& key,
                           const obs::Timeline& timeline) {
    out += format("<tr><td>%s</td>", key.c_str());
    out += "<td>" + sparkline(series_values(timeline, "concurrent"), "#1565c0") +
           "</td>";
    const DerivedSeries derived = derived_series(timeline);
    out += "<td>" + sparkline(derived.stalled_frac, "#c62828") + "</td>";
    out += "<td>" + sparkline(derived.utilization, "#2e7d32") + "</td>";
    out += "<td>" + sparkline(series_values(timeline, "arrivals"), "#6a1b9a") +
           "</td></tr>\n";
  });
  out += "</table>\n</body></html>\n";
  return out;
}

}  // namespace vodx::pop
