// Differential test of repeat_add against the loop it replaces: over a
// million seeded cases, repeat_add(x, d, k) must equal k evaluations of
// x = x + d bit for bit. The cases aim at what the closed form gets wrong
// first: round-half ties (d an odd multiple of half the grid spacing),
// binade crossings in both directions, sign changes through zero, tiny
// (subnormal) and huge operands, non-finite values and k = 0.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/repeat_add.h"
#include "common/rng.h"

namespace vodx {
namespace {

double naive(double x, double d, std::uint64_t k) {
  for (; k > 0; --k) x += d;
  return x;
}

/// Runs one case; returns whether it matched, reporting the first mismatch.
bool same(double x, double d, std::uint64_t k) {
  const double want = naive(x, d, k);
  const double got = repeat_add(x, d, k);
  if (std::bit_cast<std::uint64_t>(want) == std::bit_cast<std::uint64_t>(got)) {
    return true;
  }
  ADD_FAILURE() << std::hexfloat << "repeat_add(" << x << ", " << d << ", "
                << k << ") = " << got << ", the loop gives " << want;
  return false;
}

/// Log-uniform step count in [0, hi], k = 0 included.
std::uint64_t draw_k(Rng& rng, double hi) {
  if (rng.uniform(0, 1) < 0.02) return 0;
  return static_cast<std::uint64_t>(std::exp(rng.uniform(0, std::log(hi))));
}

double signed_pow2(Rng& rng, int lo, int hi) {
  const double value = std::ldexp(rng.uniform(1, 2),
                                  static_cast<int>(rng.uniform_int(lo, hi)));
  return rng.uniform(0, 1) < 0.5 ? -value : value;
}

/// Runs `cases` cases drawn by `draw` and stops at the first mismatch.
template <typename Draw>
void run_cases(std::uint64_t seed, int cases, Draw draw) {
  Rng rng(seed);
  for (int i = 0; i < cases; ++i) {
    double x = 0;
    double d = 0;
    std::uint64_t k = 0;
    draw(rng, x, d, k);
    if (!same(x, d, k)) return;
  }
}

TEST(RepeatAdd, RandomOperandsOfEitherSign) {
  // d from far below x's grid spacing to a few times x.
  run_cases(1, 300000, [](Rng& rng, double& x, double& d, std::uint64_t& k) {
    const int e = static_cast<int>(rng.uniform_int(-40, 40));
    x = signed_pow2(rng, e, e);
    d = signed_pow2(rng, e - 60, e + 2);
    k = draw_k(rng, 3000);
  });
}

TEST(RepeatAdd, RoundHalfTies) {
  // x a multiple of the grid spacing u of its binade and d an odd multiple
  // of u / 2, so every sum is a tie; x's parity starts either way.
  run_cases(2, 250000, [](Rng& rng, double& x, double& d, std::uint64_t& k) {
    const int e = static_cast<int>(rng.uniform_int(-30, 30));
    const double u = std::ldexp(1.0, e - 52);
    const std::int64_t m =
        rng.uniform_int(std::int64_t{1} << 52, (std::int64_t{1} << 53) - 1);
    x = static_cast<double>(m) * u;
    const std::int64_t odd =
        2 * rng.uniform_int(0, rng.uniform(0, 1) < 0.5 ? 8 : 1 << 24) + 1;
    d = static_cast<double>(odd) * (u / 2);
    if (rng.uniform(0, 1) < 0.5) x = -x;
    if (rng.uniform(0, 1) < 0.5) d = -d;
    k = draw_k(rng, 3000);
  });
}

TEST(RepeatAdd, BinadeCrossingsUpAndDown) {
  // x within a few hundred steps of a power of two, stepping across it (and
  // often across several more) or away from it.
  run_cases(3, 200000, [](Rng& rng, double& x, double& d, std::uint64_t& k) {
    const int e = static_cast<int>(rng.uniform_int(-20, 20));
    const double edge = std::ldexp(1.0, e);
    d = std::ldexp(rng.uniform(1, 2), e - static_cast<int>(
                                              rng.uniform_int(3, 50)));
    x = edge + (rng.uniform(0, 1) < 0.5 ? -1 : 1) * d *
                   static_cast<double>(rng.uniform_int(0, 300));
    if (rng.uniform(0, 1) < 0.5) d = -d;
    if (rng.uniform(0, 1) < 0.5) {
      x = -x;
      d = -d;
    }
    k = draw_k(rng, 5000);
  });
}

TEST(RepeatAdd, SignChangesThroughZero) {
  // x a random number of steps from zero on the side d moves away from, so
  // the run passes through or lands on zero.
  run_cases(4, 150000, [](Rng& rng, double& x, double& d, std::uint64_t& k) {
    d = signed_pow2(rng, -30, 10);
    const double steps = rng.uniform(0, 1) < 0.3
                             ? static_cast<double>(rng.uniform_int(0, 40))
                             : rng.uniform(0, 2000);
    x = -d * steps;
    k = draw_k(rng, 4000);
  });
}

TEST(RepeatAdd, TinyHugeAndSpecialOperands) {
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0,   -0.0, kDenorm, -kDenorm, kMin, -kMin,
                             kMax,  -kMax, kInf,   -kInf,
                             std::numeric_limits<double>::quiet_NaN(),
                             1.0,   -1.0,  0.01,   -0.01};
  // Every pair of specials at a handful of k, 0 included.
  for (double x : specials) {
    for (double d : specials) {
      for (std::uint64_t k : {0, 1, 2, 15, 16, 17, 100, 4096}) {
        if (!same(x, d, k)) return;
      }
    }
  }
  run_cases(5, 120000, [&](Rng& rng, double& x, double& d, std::uint64_t& k) {
    const double pick = rng.uniform(0, 1);
    if (pick < 0.4) {
      // Subnormals and the lowest normal binades.
      x = signed_pow2(rng, -1074, -1015);
      d = signed_pow2(rng, -1074, -1018);
    } else if (pick < 0.7) {
      // Near the top of the range: runs overflow to infinity.
      x = signed_pow2(rng, 1000, 1023);
      d = signed_pow2(rng, 960, 1023);
    } else if (pick < 0.85) {
      // Steps far below the grid spacing: a fixed point.
      x = signed_pow2(rng, -10, 10);
      d = signed_pow2(rng, -200, -60);
    } else {
      x = specials[rng.uniform_int(0, std::size(specials) - 1)];
      d = signed_pow2(rng, -1074, 1023);
    }
    k = draw_k(rng, 3000);
  });
}

TEST(RepeatAdd, LongRunsAcrossManyBinades) {
  // Few cases, long runs: the simulator's clock over hours of 10 ms ticks,
  // byte counters draining, and growth from near zero across many binades.
  run_cases(6, 400, [](Rng& rng, double& x, double& d, std::uint64_t& k) {
    const double pick = rng.uniform(0, 1);
    if (pick < 0.3) {
      x = rng.uniform(0, 1) < 0.5 ? 0 : rng.uniform(0, 3600);
      d = 0.01;
    } else if (pick < 0.6) {
      x = rng.uniform(1e3, 1e7);
      d = -rng.uniform(1, 5e4);
    } else {
      x = signed_pow2(rng, -40, 0);
      d = signed_pow2(rng, -40, 0);
    }
    k = static_cast<std::uint64_t>(rng.uniform_int(0, 1000000));
  });
}

}  // namespace
}  // namespace vodx
