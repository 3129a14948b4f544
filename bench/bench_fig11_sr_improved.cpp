// Figure 11 / §4.1.3: the paper's improved per-segment SR on the reference
// player, over the 14 profiles.
//
// Paper: median / 90th-pct bitrate improvement 11.6% / 20.9%; displayed time
// on low tracks cut 30-64% on fluctuating profiles; data usage +19.9%
// median; wasted data 10.8% of total; restricting SR to segments <= 720p
// cuts waste by ~44% on the 3 worst profiles while keeping >720p time.
#include "support.h"

#include <cstdio>

using namespace vodx;

namespace {

struct ProfileOutcome {
  core::SessionResult result;
  core::SrAnalysis analysis;
};

std::vector<ProfileOutcome> sweep(const services::ServiceSpec& spec) {
  std::vector<ProfileOutcome> out;
  for (core::SessionResult& r : bench::run_all_profiles(spec)) {
    core::SrAnalysis a = core::analyze_sr(r);
    out.push_back({std::move(r), a});
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Figure 11 / §4.1.3",
                "improved per-segment SR: displayed track mix and cost");

  services::ServiceSpec base = bench::reference_player_spec();
  services::ServiceSpec with_sr = base;
  with_sr.player.sr = player::SrPolicy::kPerSegment;
  with_sr.player.sr_min_buffer = 10;

  std::vector<ProfileOutcome> without = sweep(base);
  std::vector<ProfileOutcome> with = sweep(with_sr);

  Table table({"profile", "<=360p w/o SR", "<=360p with SR", "<=480p w/o",
               "<=480p with", "bitrate gain", "data increase"});
  std::vector<double> bitrate_gain;
  std::vector<double> data_increase;
  std::vector<double> waste_fraction;
  for (int i = 0; i < trace::kProfileCount; ++i) {
    const core::QoeReport& q0 = without[static_cast<std::size_t>(i)].result.qoe;
    const core::QoeReport& q1 = with[static_cast<std::size_t>(i)].result.qoe;
    const double gain =
        q0.average_declared_bitrate > 0
            ? q1.average_declared_bitrate / q0.average_declared_bitrate - 1
            : 0;
    const double data =
        static_cast<double>(q1.media_bytes) / q0.media_bytes - 1;
    bitrate_gain.push_back(gain);
    data_increase.push_back(data);
    waste_fraction.push_back(
        with[static_cast<std::size_t>(i)].analysis.wasted_fraction);
    table.add_row(std::to_string(i + 1),
                   bench::fmt_pct(q0.fraction_at_or_below(360)),
                   bench::fmt_pct(q1.fraction_at_or_below(360)),
                   bench::fmt_pct(q0.fraction_at_or_below(480)),
                   bench::fmt_pct(q1.fraction_at_or_below(480)),
                   bench::fmt_pct(gain), bench::fmt_pct(data));
  }
  table.print();

  std::printf("\n");
  bench::compare("median bitrate improvement", "11.6%",
                 bench::fmt_pct(median(bitrate_gain)));
  bench::compare("90th-pct bitrate improvement", "20.9%",
                 bench::fmt_pct(percentile(bitrate_gain, 90)));
  bench::compare("median data usage increase", "19.9%",
                 bench::fmt_pct(median(data_increase)));
  bench::compare("median wasted data fraction", "10.8%",
                 bench::fmt_pct(median(waste_fraction)));

  // --- 720p-threshold ablation on the 3 highest-waste profiles ----------
  std::vector<std::pair<double, int>> by_waste;
  for (int i = 0; i < trace::kProfileCount; ++i) {
    by_waste.emplace_back(
        with[static_cast<std::size_t>(i)].analysis.wasted_bytes, i + 1);
  }
  std::sort(by_waste.rbegin(), by_waste.rend());

  services::ServiceSpec capped = with_sr;
  capped.player.sr_max_height = 720;

  std::printf("\n720p-threshold ablation (3 highest-waste profiles):\n");
  Table ablation({"profile", "waste (no cap)", "waste (<=720p cap)",
                  "waste cut", ">720p time (no cap)", ">720p time (cap)"});
  std::vector<double> cuts;
  for (int k = 0; k < 3; ++k) {
    const int profile = by_waste[static_cast<std::size_t>(k)].second;
    const ProfileOutcome& uncapped =
        with[static_cast<std::size_t>(profile - 1)];
    core::SessionResult capped_run = bench::run_profile(capped, profile);
    core::SrAnalysis capped_analysis = core::analyze_sr(capped_run);
    const double cut =
        uncapped.analysis.wasted_bytes > 0
            ? 1.0 - static_cast<double>(capped_analysis.wasted_bytes) /
                        uncapped.analysis.wasted_bytes
            : 0;
    cuts.push_back(cut);
    auto above_720 = [](const core::QoeReport& q) {
      return 1.0 - q.fraction_at_or_below(720);
    };
    ablation.add_row(std::to_string(profile),
                      format("%.1f MB", uncapped.analysis.wasted_bytes / 1e6),
                      format("%.1f MB", capped_analysis.wasted_bytes / 1e6),
                      bench::fmt_pct(cut),
                      bench::fmt_pct(above_720(uncapped.result.qoe)),
                      bench::fmt_pct(above_720(capped_run.qoe)));
  }
  ablation.print();
  std::printf("\n");
  bench::compare("average waste reduction with 720p cap", "44%",
                 bench::fmt_pct(mean(cuts)));
  return 0;
}
