// Deterministic random source.
//
// Every stochastic component in vodx (scene complexity, bandwidth traces)
// takes an explicit Rng so whole experiments replay bit-identically from a
// seed. Wall-clock time is never consulted anywhere in the library.
#pragma once

#include <cstdint>
#include <random>

namespace vodx {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Normal draw; mean/stddev in the caller's units.
  double normal(double mean, double stddev);

  /// Log-normal draw parameterised directly by the target median and sigma
  /// of the underlying normal.
  double lognormal(double median, double sigma);

  /// Derives an independent child stream; children with different tags do not
  /// correlate with each other or the parent.
  Rng fork(std::uint64_t tag) const;

 private:
  std::mt19937_64 engine_;
};

}  // namespace vodx
