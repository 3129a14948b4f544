#include "obs/timeline.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/strings.h"

namespace vodx::obs {

Timeline::Timeline(Seconds bin_width, int bin_count)
    : bin_width_(bin_width), bin_count_(bin_count) {
  VODX_ASSERT(bin_width > 0, "timeline bin width must be positive");
  VODX_ASSERT(bin_count >= 0, "timeline bin count must be non-negative");
}

int Timeline::bin_index(Seconds t) const {
  if (bin_width_ <= 0 || bin_count_ <= 0) return 0;
  // A timestamp exactly on a boundary belongs to the bin that starts there;
  // the 1e-9 forgiveness keeps float-accumulated boundary times (k ticks of
  // 0.01 s) from landing one bin early.
  const int bin = static_cast<int>(std::floor(t / bin_width_ + 1e-9));
  return std::clamp(bin, 0, bin_count_ - 1);
}

int Timeline::add_series(const std::string& name, Fold fold) {
  const int existing = find(name);
  if (existing >= 0) {
    if (series_[existing].fold != fold) {
      throw ConfigError(
          format("timeline series '%s' re-registered with a different fold",
                 name.c_str()));
    }
    return existing;
  }
  Series series;
  series.name = name;
  series.fold = fold;
  series.bins.assign(static_cast<std::size_t>(bin_count_), 0.0);
  series_.push_back(std::move(series));
  return static_cast<int>(series_.size()) - 1;
}

int Timeline::find(std::string_view name) const {
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

void Timeline::merge_from(const Timeline& other) {
  if (other.empty()) return;
  if (empty()) {
    *this = other;
    return;
  }
  if (bin_width_ != other.bin_width_) {
    throw ConfigError(format(
        "timeline merge: bin width mismatch (%.6g vs %.6g)", bin_width_,
        other.bin_width_));
  }
  if (other.bin_count_ > bin_count_) {
    bin_count_ = other.bin_count_;
    for (Series& series : series_) {
      series.bins.resize(static_cast<std::size_t>(bin_count_), 0.0);
    }
  }
  for (const Series& theirs : other.series_) {
    const int index = add_series(theirs.name, theirs.fold);
    Series& mine = series_[index];
    for (std::size_t bin = 0; bin < theirs.bins.size(); ++bin) {
      switch (mine.fold) {
        case Fold::kSum:
          mine.bins[bin] += theirs.bins[bin];
          break;
        case Fold::kMax:
          mine.bins[bin] = std::max(mine.bins[bin], theirs.bins[bin]);
          break;
      }
    }
  }
}

}  // namespace vodx::obs
