// Exact replay of a repeated floating-point addition.
#pragma once

#include <cstdint>

namespace vodx {

namespace detail {
/// Below this many steps the plain loop is cheaper than the closed form.
inline constexpr std::uint64_t kRepeatAddLoopBelow = 16;
/// repeat_add for k of at least kRepeatAddLoopBelow.
double repeat_add_long(double x, double d, std::uint64_t k);
}  // namespace detail

/// `x` after `k` evaluations of `x = x + d` in double arithmetic (round to
/// nearest, ties to even), bit for bit, for `d` of either sign.
///
/// Within one binade of the running value every sum lands on the same grid
/// of spacing u, and x + d rounds to x + n·u for one integer n that depends
/// only on d / u, except at a round-half tie, where it depends on the parity
/// of x / u; after one step x / u is even and n is the even candidate from
/// then on. So the steps inside a binade are one integer multiply. Each
/// binade edge, an odd tie and the region where |d| is not small against |x|
/// (near zero) take one real step; a small `k` is a plain loop. The cost is
/// O(binades crossed), not O(k).
inline double repeat_add(double x, double d, std::uint64_t k) {
  if (k >= detail::kRepeatAddLoopBelow) return detail::repeat_add_long(x, d, k);
  for (; k > 0; --k) x += d;
  return x;
}

}  // namespace vodx
