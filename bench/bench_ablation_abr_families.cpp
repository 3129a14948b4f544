// ABR family comparison on identical content and networks: the throughput-
// based family the services use (conservative and aggressive variants), the
// BBA-style buffer-based algorithm the paper discusses in §5 (Huang et al.),
// and the §4.2 actual-bitrate-aware upgrade.
#include "support.h"

#include <cstdio>

using namespace vodx;

namespace {

struct FamilyResult {
  double median_bitrate = 0;
  double stall_total = 0;
  int switches = 0;
  double low_fraction = 0;  // median <=480p display share
};

FamilyResult evaluate(services::ServiceSpec spec) {
  FamilyResult out;
  std::vector<double> bitrates;
  std::vector<double> lows;
  for (core::SessionResult& r : bench::run_all_profiles(spec)) {
    bitrates.push_back(r.qoe.average_declared_bitrate);
    lows.push_back(r.qoe.fraction_at_or_below(480));
    out.stall_total += r.qoe.total_stall;
    out.switches += r.qoe.switch_count;
  }
  out.median_bitrate = median(bitrates);
  out.low_fraction = median(lows);
  return out;
}

}  // namespace

int main() {
  bench::banner("§3.3/§5 ablation",
                "adaptation families on identical content and networks");

  Table table({"family", "median bitrate", "total stalls", "switches",
               "<=480p time"});

  auto add = [&](const char* label, services::ServiceSpec spec) {
    FamilyResult r = evaluate(std::move(spec));
    table.add_row(label, bench::fmt_mbps(r.median_bitrate) + " Mbps",
                   bench::fmt_secs(r.stall_total), std::to_string(r.switches),
                   bench::fmt_pct(r.low_fraction));
  };

  {
    services::ServiceSpec spec = bench::reference_player_spec();
    add("throughput, conservative (0.75x)", spec);
  }
  {
    services::ServiceSpec spec = bench::reference_player_spec();
    spec.player.bandwidth_safety = 1.2;
    add("throughput, aggressive (1.2x)", spec);
  }
  {
    services::ServiceSpec spec = bench::reference_player_spec();
    spec.player.bandwidth_safety = 0.5;
    add("throughput, very conservative (0.5x)", spec);
  }
  {
    services::ServiceSpec spec = bench::reference_player_spec();
    spec.player.use_actual_bitrate = true;
    add("throughput + actual bitrates (4.2)", spec);
  }
  {
    services::ServiceSpec spec = bench::reference_player_spec();
    spec.player.abr = player::AbrKind::kBufferBased;
    spec.player.bba_reservoir = 10;
    spec.player.bba_cushion = 30;
    spec.player.pausing_threshold = 50;
    spec.player.resuming_threshold = 40;
    add("buffer-based (BBA-style)", spec);
  }
  {
    services::ServiceSpec spec = bench::reference_player_spec();
    spec.player.abr = player::AbrKind::kOscillating;
    add("buffer-slope chaser (D1 style)", spec);
  }
  table.print();

  std::printf(
      "\nThe aggressive variant only survives because this content is VBR\n"
      "with declared ~2x actual (the paper's explanation for D1/D3/S1);\n"
      "on CBR content it would stall. The D1-style chaser pays in switches.\n");
  return 0;
}
