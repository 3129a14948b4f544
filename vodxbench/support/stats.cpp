#include "support/stats.h"

#include <algorithm>
#include <cmath>

#include "common/stats.h"

namespace vodxbench {

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) {
    q.q1 = q.q2 = q.q3 = values[0];
    return q;
  }
  // statistics.quantiles(method="exclusive"): m = n + 1, cut point i at
  // position i*m/4 (1-based), linearly interpolated.
  // Like Python, the clamp happens before delta, so the outer cuts
  // extrapolate on tiny samples.
  double cuts[3];
  const long m = static_cast<long>(n) + 1;
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp<long>(i * m / 4, 1, static_cast<long>(n) - 1);
    const long delta = i * m - j * 4;
    cuts[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                       static_cast<double>(4 - delta) +
                   values[static_cast<std::size_t>(j)] *
                       static_cast<double>(delta)) /
                  4.0;
  }
  q.q1 = cuts[0];
  q.q2 = cuts[1];
  q.q3 = cuts[2];
  return q;
}

double iqr_share(const std::vector<double>& values) {
  const double mid = vodx::median(values);
  if (mid == 0) return 0;
  const Quartiles q = quartiles(values);
  return (q.q3 - q.q1) / std::abs(mid);
}

std::optional<double> percentile(std::vector<double> values, double p,
                                 int min_beyond) {
  const std::size_t n = values.size();
  if (n == 0 || p <= 0 || p >= 1) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  const std::size_t k = std::max<std::size_t>(rank, 1);
  if (n - k < static_cast<std::size_t>(std::max(0, min_beyond))) {
    return std::nullopt;
  }
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k - 1),
                   values.end());
  return values[k - 1];
}

}  // namespace vodxbench
