#include "common/repeat_add.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace vodx {

namespace {
constexpr std::uint64_t kMantissaBits = 0x000fffffffffffffULL;
constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;
constexpr std::int64_t kHidden = std::int64_t{1} << 52;
constexpr std::int64_t kTop = (std::int64_t{1} << 53) - 1;
}  // namespace

double detail::repeat_add_long(double x, double d, std::uint64_t k) {
  while (k >= kRepeatAddLoopBelow) {
    // Work on |x|: fl(-a + d) = -fl(a - d), so a negative x steps by -d.
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const bool negative = (bits & kSignBit) != 0;
    const std::uint64_t magnitude = bits & ~kSignBit;
    const int biased = static_cast<int>(magnitude >> 52);
    const double step = negative ? -d : d;
    // |x| = m·u on the grid of spacing u = 2^(max(biased, 1) - 1075), and
    // the lowest m the run may reach while every exact sum stays on that
    // grid. Below 2^-1021 (zero, subnormals and the lowest normal binade)
    // u is the smallest subnormal and every sum of such values is exact;
    // the run stops short of zero, whose sign a real step decides.
    std::int64_t m;
    std::int64_t lowest;
    if (biased <= 1) {
      m = static_cast<std::int64_t>(magnitude);
      lowest = 1;
    } else {
      m = static_cast<std::int64_t>(magnitude & kMantissaBits) | kHidden;
      // A sum just under 2^e would round on the finer grid below it.
      lowest = kHidden + 1;
    }
    // u from its bits: a normal number with biased exponent
    // max(biased, 1) - 52, or a subnormal below that.
    const int u_biased = std::max(biased, 1) - 52;
    const double u = std::bit_cast<double>(
        u_biased >= 1 ? static_cast<std::uint64_t>(u_biased) << 52
                      : std::uint64_t{1} << (u_biased + 51));
    std::int64_t n = 0;
    bool closed = biased < 2047;  // inf and NaN take real steps
    if (closed) {
      // |step| / u is exact (u is a power of two), and so is its fraction.
      const double q = std::fabs(step) / u;
      closed = q < 0x1p52;  // also false for a NaN step
      if (closed) {
        n = static_cast<std::int64_t>(q);
        const double frac = q - static_cast<double>(n);
        if (frac > 0.5) {
          ++n;
        } else if (frac == 0.5) {
          // A tie rounds to the even multiple: from an even m every step
          // adds the even candidate; an odd m takes one real step first.
          if ((m & 1) != 0) {
            closed = false;
          } else if ((n & 1) != 0) {
            ++n;
          }
        }
        if (step < 0) n = -n;
      }
    }
    // n == 0 is a fixed point, which the real step below detects.
    if (closed && n != 0) {
      const std::int64_t room = n > 0 ? (kTop - m) / n : (m - lowest) / -n;
      if (room > 0) {
        const std::uint64_t steps =
            std::min<std::uint64_t>(static_cast<std::uint64_t>(room), k);
        m += static_cast<std::int64_t>(steps) * n;
        k -= steps;
        std::uint64_t out = static_cast<std::uint64_t>(m);
        if (biased > 1) {
          out = (static_cast<std::uint64_t>(biased) << 52) |
                (out & kMantissaBits);
        }
        x = std::bit_cast<double>(out | (negative ? kSignBit : 0));
        continue;
      }
    }
    const double next = x + d;
    --k;
    if (std::bit_cast<std::uint64_t>(next) == bits) return next;
    x = next;
  }
  for (; k > 0; --k) x += d;
  return x;
}

}  // namespace vodx
