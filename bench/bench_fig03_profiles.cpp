// Figure 3: the 14 collected cellular bandwidth profiles, sorted by mean.
// The paper's bar chart shows mean bandwidth with variability whiskers; we
// print mean / p10 / p90 / peak per profile plus fade statistics.
#include "support.h"

#include <cstdio>

using namespace vodx;

int main() {
  bench::banner("Figure 3", "collected cellular network bandwidth profiles");

  Table table({"profile", "mean (Mbps)", "p10", "p90", "peak", "time <25% of mean"});
  for (int id = 1; id <= trace::kProfileCount; ++id) {
    net::BandwidthTrace t = trace::cellular_profile(id);
    std::vector<double> samples;
    int faded = 0;
    for (Seconds wall = 0; wall < t.duration(); wall += 1) {
      samples.push_back(t.at(wall));
      if (t.at(wall) < 0.25 * t.mean()) ++faded;
    }
    table.add_row(std::to_string(id), bench::fmt_mbps(t.mean()),
                   bench::fmt_mbps(percentile(samples, 10)),
                   bench::fmt_mbps(percentile(samples, 90)),
                   bench::fmt_mbps(t.peak()),
                   bench::fmt_pct(faded / t.duration()));
  }
  table.print();

  std::printf("\n");
  bench::compare("profile mean range", "~0.6-40 Mbps",
                 bench::fmt_mbps(trace::profile_mean(1)) + "-" +
                     bench::fmt_mbps(trace::profile_mean(14)) + " Mbps");
  bench::compare("profile count / duration", "14 x 10 min", "14 x 10 min");
  return 0;
}
