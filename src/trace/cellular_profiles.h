// The 14 cellular bandwidth profiles (Fig. 3).
//
// The paper collects one throughput sample per second over ten minutes while
// downloading a large file in varied scenarios (movement, signal strength,
// location), then sorts profiles by average bandwidth. We synthesise the
// equivalent: a Markov-modulated process with fade / degraded / nominal /
// peak states, AR(1) jitter within a state, sampled at 1 Hz for 600 s and
// rescaled so every profile's realised mean hits its Fig.-3 target. Profile 1
// is the slowest (~0.6 Mbps, frequent deep fades), profile 14 the fastest
// (~38 Mbps).
#pragma once

#include <cstdint>
#include <vector>

#include "net/bandwidth_trace.h"

namespace vodx::trace {

constexpr int kProfileCount = 14;
constexpr Seconds kProfileDuration = 600;

/// Target mean bandwidth of profile `id` (1-based, Fig. 3 order).
Bps profile_mean(int id);

/// Builds profile `id` (1-based). Deterministic: same id + seed -> same trace.
net::BandwidthTrace cellular_profile(int id, std::uint64_t seed = 2017);

/// The Fig.-15 evaluation set: the lowest `low_count` profiles, each cut into
/// 600/`piece` pieces of `piece` seconds (the paper uses 5 profiles x 1 min
/// = 50 short profiles).
std::vector<net::BandwidthTrace> startup_profiles(int low_count = 5,
                                                  Seconds piece = 60,
                                                  std::uint64_t seed = 2017);

}  // namespace vodx::trace
