#include "trace/cellular_profiles.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "common/strings.h"

namespace vodx::trace {

namespace {

/// Fig.-3 target means, Mbps, profiles 1..14.
constexpr double kMeansMbps[kProfileCount] = {
    0.6, 1.0, 1.5, 2.2, 3.0, 4.2, 5.5, 7.5, 9.5, 12.0, 16.0, 21.0, 28.0, 38.0};

/// Channel states: multiplier on the profile's nominal level and the mean
/// dwell time. Slow profiles spend more time faded (they are slow *because*
/// of coverage), so fade dwell shrinks with profile id.
struct ChannelState {
  double multiplier;
  Seconds mean_dwell;
};

}  // namespace

Bps profile_mean(int id) {
  VODX_ASSERT(id >= 1 && id <= kProfileCount, "profile id out of range");
  return kMeansMbps[id - 1] * kMbps;
}

net::BandwidthTrace cellular_profile(int id, std::uint64_t seed) {
  VODX_ASSERT(id >= 1 && id <= kProfileCount, "profile id out of range");
  Rng rng = Rng(seed).fork(static_cast<std::uint64_t>(id));

  // Slow profiles: deeper and longer fades; fast profiles: steadier.
  const double severity =
      1.0 - static_cast<double>(id - 1) / (kProfileCount - 1);  // 1 .. 0
  const ChannelState states[4] = {
      {0.10, 4.0 + 8.0 * severity},   // deep fade
      {0.45, 8.0},                    // degraded
      {1.00, 14.0 + 8.0 * (1 - severity)},  // nominal
      {1.80, 6.0},                    // peak burst
  };
  const double state_weights[4] = {0.10 + 0.15 * severity, 0.22, 0.48, 0.20};

  const int samples = static_cast<int>(kProfileDuration);
  std::vector<Bps> series(static_cast<std::size_t>(samples));

  int state = 2;  // start nominal
  Seconds dwell_left = states[state].mean_dwell;
  double jitter = 0.0;  // AR(1) around the state level
  for (int t = 0; t < samples; ++t) {
    if (dwell_left <= 0) {
      // Pick the next state by weight, never repeating the current one.
      double total = 0;
      for (int s = 0; s < 4; ++s) {
        if (s != state) total += state_weights[s];
      }
      double draw = rng.uniform(0, total);
      for (int s = 0; s < 4; ++s) {
        if (s == state) continue;
        draw -= state_weights[s];
        if (draw <= 0) {
          state = s;
          break;
        }
      }
      dwell_left = std::max(1.0, rng.normal(states[state].mean_dwell,
                                            states[state].mean_dwell * 0.4));
    }
    dwell_left -= 1.0;
    jitter = 0.7 * jitter + rng.normal(0.0, 0.12);
    const double level =
        states[state].multiplier * std::max(0.2, 1.0 + jitter);
    series[static_cast<std::size_t>(t)] = level;  // rescaled below
  }

  // Rescale so the realised mean equals the Fig.-3 target exactly.
  double sum = 0;
  for (double v : series) sum += v;
  const double scale = profile_mean(id) * samples / sum;
  for (Bps& v : series) v = std::max(50.0 * kKbps, v * scale);

  net::BandwidthTrace trace = net::BandwidthTrace::per_second(series);
  trace.set_name(format("Profile %d", id));
  return trace;
}

std::vector<net::BandwidthTrace> startup_profiles(int low_count, Seconds piece,
                                                  std::uint64_t seed) {
  VODX_ASSERT(low_count >= 1 && low_count <= kProfileCount,
              "low_count out of range");
  std::vector<net::BandwidthTrace> out;
  for (int id = 1; id <= low_count; ++id) {
    net::BandwidthTrace full = cellular_profile(id, seed);
    for (Seconds start = 0; start + piece <= full.duration() + 1e-9;
         start += piece) {
      net::BandwidthTrace slice = full.slice(start, piece);
      slice.set_name(format("Profile %d @%ds", id, static_cast<int>(start)));
      out.push_back(std::move(slice));
    }
  }
  return out;
}

}  // namespace vodx::trace
