// Figure 10 / §4.1.1: the naive Segment Replacement of H4 (and H1's
// ExoPlayer-v1 cascade) — what-if analysis over the 14 cellular profiles.
//
// Paper findings (H4): median data increase 25.66% (5 profiles > 75%);
// median bitrate improvement only 3.66%; 21.31% of replacements were lower
// quality and 6.50% equal; 90th-pct cascade length 6 segments; SR can even
// *reduce* average bitrate on some profiles.
#include "support.h"

#include <cstdio>

using namespace vodx;

namespace {

void analyze_service(const std::string& name) {
  const services::ServiceSpec& spec = services::service(name);
  std::vector<core::SrAnalysis> analyses;
  for (const core::SessionResult& r : bench::run_all_profiles(spec)) {
    analyses.push_back(core::analyze_sr(r));
  }

  Table table({"profile", "data increase", "bitrate change", "repl. lower",
               "repl. equal", "p90 cascade"});
  std::vector<double> data_increase;
  std::vector<double> bitrate_change;
  double lower_sum = 0;
  double equal_sum = 0;
  int replacement_total = 0;
  std::vector<double> cascades;
  bool quality_drop_seen = false;
  for (std::size_t i = 0; i < analyses.size(); ++i) {
    const core::SrAnalysis& a = analyses[i];
    data_increase.push_back(a.data_increase);
    bitrate_change.push_back(a.bitrate_change);
    lower_sum += a.replacements_lower * a.replacement_downloads;
    equal_sum += a.replacements_equal * a.replacement_downloads;
    replacement_total += a.replacement_downloads;
    if (a.sr_observed) cascades.push_back(a.p90_cascade_length);
    if (a.bitrate_change < 0) quality_drop_seen = true;
    table.add_row(std::to_string(i + 1), bench::fmt_pct(a.data_increase),
                   bench::fmt_pct(a.bitrate_change),
                   bench::fmt_pct(a.replacements_lower),
                   bench::fmt_pct(a.replacements_equal),
                   a.sr_observed ? std::to_string(a.p90_cascade_length)
                                 : "-");
  }

  std::printf("--- %s (%s) ---\n", name.c_str(),
              name == "H4" ? "naive cascade SR" : "ExoPlayer-v1 cascade SR");
  table.print();
  std::printf("\n");
  // The paper reports these numbers for H4 only.
  const bool reported = name == "H4";
  auto paper = [&](const char* value) {
    return reported ? format("%s (H4)", value)
                    : format("not reported (%s)", name.c_str());
  };
  bench::compare("median data usage increase", paper("25.66%"),
                 bench::fmt_pct(median(data_increase), 2));
  bench::compare("median avg-bitrate improvement", paper("3.66%"),
                 bench::fmt_pct(median(bitrate_change), 2));
  if (replacement_total > 0) {
    bench::compare("replacements with lower quality", paper("21.31%"),
                   bench::fmt_pct(lower_sum / replacement_total, 2));
    bench::compare("replacements with equal quality", paper("6.50%"),
                   bench::fmt_pct(equal_sum / replacement_total, 2));
  }
  bench::compare("90th-pct contiguous replaced segments", paper("6"),
                 cascades.empty() ? "-" : format("%.0f", percentile(cascades, 90)));
  bench::compare("SR can reduce average bitrate on some profile",
                 paper("yes, -4.09%"), quality_drop_seen ? "yes" : "no");
  std::printf("\n");
}

}  // namespace

int main() {
  bench::banner("Figure 10 / §4.1.1",
                "naive Segment Replacement: usage, cost and quality impact");
  analyze_service("H4");
  analyze_service("H1");
  return 0;
}
