#include "common/stats.h"

#include <algorithm>

namespace vodx {

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

namespace {
double sorted_percentile(const std::vector<double>& xs, double p);
}  // namespace

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  return sorted_percentile(xs, p);
}

namespace {

/// Linear-interpolated percentile over an already-sorted vector (the
/// single-sort core shared by percentile() and quantiles()).
double sorted_percentile(const std::vector<double>& xs, double p) {
  if (xs.empty()) return 0.0;
  double rank = std::clamp(p, 0.0, 100.0) / 100.0 *
                static_cast<double>(xs.size() - 1);
  std::size_t lo = static_cast<std::size_t>(rank);
  std::size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

}  // namespace

QuantileSummary quantiles(std::vector<double> xs) {
  QuantileSummary out;
  if (xs.empty()) return out;
  std::sort(xs.begin(), xs.end());
  out.p50 = sorted_percentile(xs, 50.0);
  out.p95 = sorted_percentile(xs, 95.0);
  out.p99 = sorted_percentile(xs, 99.0);
  return out;
}

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;  // all-zero: everyone equally has nothing
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

double min_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::min_element(xs.begin(), xs.end());
}

double max_of(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  sum_ += x;
  ++count_;
}

}  // namespace vodx
