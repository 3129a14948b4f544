// Mergeable fixed-interval time series.
//
// MetricsSnapshot answers "how much, in total"; a Timeline answers "how much,
// when" at a fixed bin width — the shape of everything the paper reads off
// the 1 Hz seekbar channel and the per-request traffic logs. Like
// MetricsSnapshot it is a *mergeable value type*: per-bin values fold
// elementwise under a per-series fold kind (kSum for counters and
// across-tower gauges, kMax for peaks), the fold is associative and
// commutative, and a default-constructed Timeline is its identity — so
// folding per-tower timelines post-join in tower order yields a population
// timeline that is byte-identical at any --jobs value (the same determinism
// contract as DESIGN.md §8).
//
// Bin convention: bin k covers [k * bin_width, (k+1) * bin_width); a sample
// stamped exactly on a bin boundary belongs to the bin that *starts* there
// (bin_index is floor with a 1e-9 forgiveness for float-accumulated
// timestamps). Timelines merged together must agree on bin_width; bin counts
// may differ — the shorter operand is padded with the fold identity (0; all
// recorded values are non-negative by contract, so 0 is the identity for
// kMax too).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"

namespace vodx::obs {

class Timeline {
 public:
  /// How two bins of the same series combine under merge.
  enum class Fold {
    kSum,  ///< counters and summable gauges (concurrency adds across towers)
    kMax,  ///< per-bin peaks
  };

  struct Series {
    std::string name;
    Fold fold = Fold::kSum;
    std::vector<double> bins;  ///< bin_count() entries
  };

  /// The merge identity: no bins, no series, unset bin width.
  Timeline() = default;
  /// `bin_width` > 0; `bin_count` >= 0.
  Timeline(Seconds bin_width, int bin_count);

  /// True for the merge identity (merging it changes nothing; merging into
  /// it adopts the other operand wholesale).
  bool empty() const { return bin_width_ <= 0 && series_.empty(); }

  Seconds bin_width() const { return bin_width_; }
  int bin_count() const { return bin_count_; }
  Seconds bin_start(int bin) const { return bin * bin_width_; }

  /// Bin holding time `t` under the boundary convention above, clamped into
  /// [0, bin_count() - 1]. Meaningless on an empty timeline (returns 0).
  int bin_index(Seconds t) const;

  /// Index of the named series, creating it (zero-filled) on first use.
  /// Re-requesting with a different fold kind throws ConfigError.
  int add_series(const std::string& name, Fold fold);

  /// Index of the named series, -1 when absent.
  int find(std::string_view name) const;

  const Series& series(int index) const { return series_[index]; }
  const std::vector<Series>& all() const { return series_; }

  double value(int index, int bin) const { return series_[index].bins[bin]; }
  /// Adds `delta` into the bin (kSum semantics regardless of fold kind —
  /// in-run accumulation is always additive).
  void add(int index, int bin, double delta) {
    series_[index].bins[bin] += delta;
  }
  void set(int index, int bin, double v) { series_[index].bins[bin] = v; }

  /// Folds `other` into this timeline (see the header comment): series are
  /// matched by name (fold kinds must agree; absent series are appended in
  /// `other`'s order), bins fold elementwise, the result's bin count is the
  /// max of the two. Throws ConfigError on a bin-width or fold-kind
  /// mismatch.
  void merge_from(const Timeline& other);

 private:
  Seconds bin_width_ = 0;
  int bin_count_ = 0;
  std::vector<Series> series_;
};

}  // namespace vodx::obs
