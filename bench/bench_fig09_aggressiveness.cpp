// Figure 9: selected declared bitrate as a function of (constant) available
// bandwidth, for H1, H3, D1, D2, D3 — the aggressive services hug or exceed
// y = x, the conservative ones stay under 0.75x (D2 under 0.5x).
#include "support.h"

#include <cstdio>
#include <map>

#include "core/blackbox.h"

using namespace vodx;

int main() {
  bench::banner("Figure 9",
                "selected declared bitrate vs constant network bandwidth");

  const char* names[] = {"H1", "H3", "D1", "D2", "D3"};
  const double bandwidths_mbps[] = {0.5, 0.75, 1.0, 1.5,
                                    2.0, 2.5,  3.0, 3.5};

  std::vector<std::string> header{"bw (Mbps)"};
  for (const char* n : names) header.push_back(n);
  Table table(header);

  std::map<std::string, double> max_ratio;
  for (double bw_mbps : bandwidths_mbps) {
    table.add(format("%.2f", bw_mbps));
    for (const char* name : names) {
      core::SteadyStateProbe probe = core::probe_steady_state(
          services::service(name),
          {.bandwidth = bw_mbps * 1e6, .duration = 420, .warmup = 100});
      table.add(format("%.2f (%.2fx)", probe.modal_declared_bitrate / 1e6,
                       probe.declared_over_bandwidth));
      max_ratio[name] =
          std::max(max_ratio[name], probe.declared_over_bandwidth);
    }
  }
  table.print();

  std::printf("\n");
  bench::compare("aggressive (ratio reaches ~y=x)", "D1, D3",
                 format("D1 %.2fx, D3 %.2fx", max_ratio["D1"],
                        max_ratio["D3"]));
  bench::compare("conservative (<= 0.75x)", "H1, H3",
                 format("H1 %.2fx, H3 %.2fx", max_ratio["H1"],
                        max_ratio["H3"]));
  bench::compare("very conservative (<= 0.5x)", "D2",
                 format("D2 %.2fx", max_ratio["D2"]));
  return 0;
}
