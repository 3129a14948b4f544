#include "common/rng.h"

#include <cmath>

namespace vodx {

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

double Rng::lognormal(double median, double sigma) {
  std::lognormal_distribution<double> dist(std::log(median), sigma);
  return dist(engine_);
}

Rng Rng::fork(std::uint64_t tag) const {
  // splitmix64-style mixing of the engine's next output with the tag keeps
  // child streams decorrelated without advancing the parent.
  Rng copy = *this;
  std::uint64_t x = copy.engine_() ^ (tag * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return Rng(x);
}

}  // namespace vodx
