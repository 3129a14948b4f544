// Table 1: design choices of the 12 services — every column recovered by
// the black-box methodology, printed next to the configured ground truth
// (the validation the paper could not do).
#include "support.h"

#include <cstdio>

#include "batch/thread_pool.h"
#include "core/design_inference.h"

using namespace vodx;

namespace {

std::string yn(bool value) { return value ? "Y" : "N"; }

std::string with_truth(const std::string& inferred, const std::string& truth) {
  return inferred + " (" + truth + ")";
}

}  // namespace

int main() {
  bench::banner("Table 1",
                "design choices, black-box inferred (ground truth in parens)");

  Table table({"svc", "proto", "segdur", "sep.audio", "#TCP", "persist",
               "startup buf", "startup br", "pausing", "resuming",
               "encoding", "stable", "aggressive", "decrease buf"});
  // The probe battery per service is independent of every other service;
  // fan the 12 batteries out and assemble rows in catalog order.
  const std::vector<services::ServiceSpec>& specs = services::catalog();
  std::vector<core::InferredDesign> inferred =
      batch::parallel_map<core::InferredDesign>(
          specs.size(), bench::harness_jobs(),
          [&](std::size_t i) { return core::infer_design(specs[i]); });

  int exact_columns = 0;
  int total_columns = 0;
  for (std::size_t row = 0; row < specs.size(); ++row) {
    const services::ServiceSpec& spec = specs[row];
    const core::InferredDesign& d = inferred[row];

    auto near = [&](double a, double b, double tol) {
      ++total_columns;
      if (std::abs(a - b) <= tol) ++exact_columns;
    };
    near(d.segment_duration, spec.segment_duration, 0.01);
    near(d.separate_audio ? 1 : 0, spec.separate_audio ? 1 : 0, 0);
    near(d.max_tcp, spec.player.max_connections, 0);
    near(d.persistent_tcp ? 1 : 0, spec.player.persistent_connections ? 1 : 0,
         0);
    near(d.startup_buffer, spec.player.startup_buffer, spec.segment_duration);
    near(d.startup_bitrate, spec.player.startup_bitrate,
         0.02 * spec.player.startup_bitrate);
    near(d.pausing_threshold, spec.player.pausing_threshold,
         spec.segment_duration * spec.player.max_connections + 5);
    near(d.resuming_threshold, spec.player.resuming_threshold,
         spec.segment_duration + 5);
    near(d.cbr ? 1 : 0,
         spec.encoding == media::EncodingMode::kCbr ? 1 : 0, 0);

    // Decrease-buffer column only meaningful for large pausing thresholds
    // (the paper's "7 apps with pausing > 60 s" analysis).
    std::string decrease = "-";
    if (spec.player.pausing_threshold > 60) {
      decrease = d.immediate_downswitch
                     ? "immediate"
                     : format("%.0f s", d.decrease_buffer);
    }
    std::string decrease_truth =
        spec.player.pausing_threshold <= 60 ? "-"
        : spec.player.decrease_buffer > 0
            ? format("%.0f s", spec.player.decrease_buffer)
            : "immediate";

    table.add_row(spec.name, to_string(spec.protocol),
         with_truth(format("%.0f s", d.segment_duration),
                    format("%.0f s", spec.segment_duration)),
         with_truth(yn(d.separate_audio), yn(spec.separate_audio)),
         with_truth(std::to_string(d.max_tcp),
                    std::to_string(spec.player.max_connections)),
         with_truth(yn(d.persistent_tcp),
                    yn(spec.player.persistent_connections)),
         with_truth(format("%.0f s/%d seg", d.startup_buffer,
                           d.startup_segments),
                    format("%.0f s", spec.player.startup_buffer)),
         with_truth(format("%.2f M", d.startup_bitrate / 1e6),
                    format("%.2f M", spec.player.startup_bitrate / 1e6)),
         with_truth(format("%.0f s", d.pausing_threshold),
                    format("%.0f s", spec.player.pausing_threshold)),
         with_truth(format("%.0f s", d.resuming_threshold),
                    format("%.0f s", spec.player.resuming_threshold)),
         with_truth(
             d.cbr ? "CBR"
                   : (d.declared_policy == media::DeclaredPolicy::kPeak
                          ? "VBR/peak"
                          : "VBR/avg"),
             spec.encoding == media::EncodingMode::kCbr
                 ? "CBR"
                 : (spec.declared_policy == media::DeclaredPolicy::kPeak
                        ? "VBR/peak"
                        : "VBR/avg")),
         with_truth(yn(d.stable),
                    yn(spec.player.abr != player::AbrKind::kOscillating)),
         with_truth(yn(d.aggressive), yn(spec.player.bandwidth_safety >= 1.0 ||
                                         spec.player.abr ==
                                             player::AbrKind::kOscillating)),
         with_truth(decrease, decrease_truth));
  }
  table.print();

  std::printf("\n");
  bench::compare("columns recovered within tolerance",
                 "n/a (no ground truth)",
                 format("%d/%d", exact_columns, total_columns));
  bench::compare("unstable service", "D1", "see 'stable' column");
  bench::compare("aggressive services", "3 (D1,D3,S1)",
                 "see 'aggressive' column");
  bench::compare("decrease-buffer services", "H2:40 D3:30 S1:50",
                 "see last column");
  return 0;
}
