// Descriptive statistics used by the QoE analysis and bench harnesses.
#pragma once

#include <vector>

namespace vodx {

double mean(const std::vector<double>& xs);
double median(std::vector<double> xs);

/// Linear-interpolated percentile, p in [0, 100]. Empty input returns 0.
double percentile(std::vector<double> xs, double p);

double min_of(const std::vector<double>& xs);
double max_of(const std::vector<double>& xs);

/// The three tail points population rollups report. One sort, three reads —
/// callers that need p50/p95/p99 together should use this instead of three
/// percentile() calls. Empty input yields all zeros.
struct QuantileSummary {
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

QuantileSummary quantiles(std::vector<double> xs);

/// Jain's fairness index (Σx)² / (n·Σx²) over non-negative allocations:
/// 1.0 = perfectly equal shares, 1/n = one flow has everything. An all-zero
/// population is perfectly equal (1.0); empty input returns 0.
double jain_index(const std::vector<double>& xs);

/// Running mean/min/max accumulator for streaming measurements.
class Accumulator {
 public:
  void add(double x);
  int count() const { return count_; }
  double mean() const { return count_ ? sum_ / count_ : 0.0; }
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  int count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace vodx
