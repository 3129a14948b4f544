// Order statistics for benchmark samples that vodx/common/stats.h lacks.
#pragma once

#include <optional>
#include <vector>

namespace vodxbench {

struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
};

/// Quartiles by the "exclusive" rule of Python's
/// statistics.quantiles(values, n=4), so spreads computed here and in
/// Python agree. Needs at least two values; one value yields it
/// three times, none yields zeros.
Quartiles quartiles(std::vector<double> values);

/// (q3 - q1) / median, 0 when the median is 0.
double iqr_share(const std::vector<double>& values);

/// Nearest-rank percentile p in (0, 1) — but only when at least
/// `min_beyond` samples lie strictly beyond its rank; otherwise nullopt.
/// With the default of 10, a p99 needs at least 1000 samples.
std::optional<double> percentile(std::vector<double> values, double p,
                                 int min_beyond = 10);

}  // namespace vodxbench
