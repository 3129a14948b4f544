#include "player/abr.h"

#include <algorithm>

#include "common/error.h"

namespace vodx::player {

namespace {
/// Upcoming segments whose actual bitrate use_actual_bitrate weighs (§4.2).
constexpr int kActualBitrateLookahead = 3;
}  // namespace

Bps track_required_rate(const manifest::ClientTrack& track, int next_index,
                        const PlayerConfig& config) {
  if (!config.use_actual_bitrate) return track.declared_bitrate;
  if (!track.sizes_known) {
    // No per-segment sizes on the wire; the HLS AVERAGE-BANDWIDTH attribute
    // is the next-best granularity (§4.2).
    return track.average_bandwidth > 0 ? track.average_bandwidth
                                       : track.declared_bitrate;
  }
  // Worst case over the upcoming window: a track is only affordable if the
  // segments about to be fetched fit, not just the average.
  Bps need = 0;
  const int count = static_cast<int>(track.segments.size());
  const int end = std::min(count, next_index + kActualBitrateLookahead);
  for (int i = next_index; i < end; ++i) {
    need = std::max(need,
                    track.segments[static_cast<std::size_t>(i)].actual_bitrate());
  }
  return need > 0 ? need : track.declared_bitrate;
}

namespace {

class ThroughputAbr final : public AbrPolicy {
 public:
  explicit ThroughputAbr(const PlayerConfig& config) : config_(config) {}

  int select_video_level(const AbrContext& context) override {
    const auto& ladder = context.presentation->video;
    VODX_ASSERT(!ladder.empty(), "no video tracks");
    if (context.estimator_samples < kEstimatorMinSamples) {
      // Not enough history to trust the estimate (§4.3: players keep the
      // startup track for the first couple of segments).
      return context.startup_level;
    }
    const Bps budget = config_.bandwidth_safety * context.bandwidth_estimate;
    auto need_of = [&](int level) {
      return track_required_rate(ladder[static_cast<std::size_t>(level)],
                                 context.next_index, config_);
    };
    int best = 0;
    for (int level = 0; level < static_cast<int>(ladder.size()); ++level) {
      if (need_of(level) <= budget) best = level;
    }
    // Up-switch confirmation: a single optimistic estimate (one bursty
    // download) must not move the track up, or boundary operating points
    // flap. Down-switches stay immediate — stalls are worse than caution,
    // and the damped services express their patience via decrease_buffer.
    const int last = std::clamp(context.last_level, 0,
                                static_cast<int>(ladder.size()) - 1);
    if (best > last) {
      if (++up_votes_ < kSwitchConfirmation) best = last;
    } else {
      up_votes_ = 0;
    }
    if (best < last && config_.decrease_buffer > 0 &&
        context.buffer > config_.decrease_buffer) {
      // Plenty buffered: ride out the dip instead of switching down (§3.3.4).
      return last;
    }
    return best;
  }

 private:
  PlayerConfig config_;
  int up_votes_ = 0;
};

class OscillatingAbr final : public AbrPolicy {
 public:
  explicit OscillatingAbr(const PlayerConfig& config) : config_(config) {}

  int select_video_level(const AbrContext& context) override {
    const int max_level =
        static_cast<int>(context.presentation->video.size()) - 1;
    if (context.estimator_samples < kEstimatorMinSamples) {
      return context.startup_level;
    }
    // Baseline: the highest track whose *declared* bitrate fits the
    // estimate. With peak-declared VBR the actual bitrate is about half the
    // declared one, so this is "aggressive" in Fig.-9 terms (declared ~ y=x)
    // yet still downloads video at ~2x real time — which is exactly how D1
    // piles up ~100 s of video while its audio pipeline starves (§3.2).
    int baseline = 0;
    for (int level = 0; level <= max_level; ++level) {
      const auto& track =
          context.presentation->video[static_cast<std::size_t>(level)];
      if (track.declared_bitrate <= context.bandwidth_estimate) {
        baseline = level;
      }
    }
    // ... perturbed by the buffer slope every decision, which is what keeps
    // it from ever settling; strong slopes provoke double steps (the
    // non-consecutive switches users dislike, Fig. 8).
    int jitter = 0;
    if (context.buffer_delta > 2.0) {
      jitter = context.buffer_delta > 8.0 ? 2 : 1;  // a segment-fill burst
    } else if (context.buffer_delta < -2.5) {
      jitter = context.buffer_delta < -8.0 ? -2 : -1;  // a real drain
    }
    return std::clamp(baseline + jitter, 0, max_level);
  }

 private:
  PlayerConfig config_;
};

class BufferBasedAbr final : public AbrPolicy {
 public:
  explicit BufferBasedAbr(const PlayerConfig& config) : config_(config) {}

  int select_video_level(const AbrContext& context) override {
    const int max_level =
        static_cast<int>(context.presentation->video.size()) - 1;
    if (context.estimator_samples < kEstimatorMinSamples) {
      return context.startup_level;
    }
    // BBA rate map: lowest track inside the reservoir, highest once the
    // cushion is full, linear ladder walk in between. The buffer is the
    // controller — if the chosen track overruns the link, the buffer drains
    // and the map pulls the rate back down.
    const Seconds reservoir = std::max(0.0, config_.bba_reservoir);
    const Seconds cushion = std::max(1.0, config_.bba_cushion);
    if (context.buffer <= reservoir) return 0;
    const double frac =
        std::min(1.0, (context.buffer - reservoir) / cushion);
    return std::clamp(static_cast<int>(frac * max_level + 1e-9), 0,
                      max_level);
  }

 private:
  PlayerConfig config_;
};

}  // namespace

std::unique_ptr<AbrPolicy> make_abr(const PlayerConfig& config) {
  switch (config.abr) {
    case AbrKind::kThroughput:
      return std::make_unique<ThroughputAbr>(config);
    case AbrKind::kOscillating:
      return std::make_unique<OscillatingAbr>(config);
    case AbrKind::kBufferBased:
      return std::make_unique<BufferBasedAbr>(config);
  }
  throw ConfigError("unknown ABR kind");
}

}  // namespace vodx::player
