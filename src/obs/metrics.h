// Metrics registry: counters, gauges and fixed-bucket histograms.
//
// Metrics complement the event trace: the trace answers "what happened at
// t=212.4 s", metrics answer "how much, in total". Everything is
// registered by name, kept in registration order, and snapshotable at any
// sim time — a snapshot is a deep copy, isolated from later mutation, so a
// sweep can capture per-phase metrics mid-run.
//
// Single-threaded like the simulator; handles returned by the registry stay
// valid for the registry's lifetime.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"

namespace vodx::obs {

class Counter {
 public:
  void add(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Fixed-bucket histogram. `bounds` are ascending upper edges; a sample lands
/// in the first bucket whose bound is >= the value, or the implicit overflow
/// bucket past the last bound.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double value);

  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / count_ : 0; }
  double min() const { return count_ > 0 ? min_ : 0; }
  double max() const { return count_ > 0 ? max_ : 0; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  const std::vector<std::int64_t>& buckets() const { return buckets_; }

  /// Quantile with linear interpolation inside the winning bucket (see
  /// bucket_quantile below). 0 with no samples.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::vector<std::int64_t> buckets_;
  std::int64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Interpolated quantile over fixed buckets: finds the bucket holding the
/// q-th sample and interpolates linearly within it, clamping the bucket's
/// edges to the observed [min, max]. This is the one quantile definition the
/// whole tree uses (Histogram::quantile, merged-snapshot recompute, report
/// renderers), so per-cell and aggregated percentiles agree.
double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::int64_t>& buckets,
                       std::int64_t count, double min, double max, double q);

/// Deep-copied view of the registry at one moment.
///
/// A snapshot is also a *mergeable value type* — the unit of cross-run
/// aggregation. merge_from folds another snapshot in: counters add, gauges
/// keep the last write by sim time (per-entry `time`, right operand wins
/// ties), histograms merge bucket-wise (identical bounds required; empty
/// histograms are the identity) with derived stats recomputed. The
/// operation is associative and a default-constructed snapshot is its
/// identity, so any fold order over the same multiset of snapshots yields
/// the same value; folding in grid order makes sweep aggregates
/// byte-identical at any --jobs.
struct MetricsSnapshot {
  enum class Type { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Type type = Type::kCounter;
    std::int64_t count = 0;  ///< counter value / histogram sample count
    double value = 0;        ///< gauge value / histogram sum
    double min = 0, mean = 0, p50 = 0, p90 = 0, p99 = 0, max = 0;
    /// Sim time of the snapshot the value was captured at; the merge
    /// tie-breaker for gauges (newest wins).
    Seconds time = 0;
    std::vector<double> bounds;
    std::vector<std::int64_t> buckets;
  };

  Seconds sim_time = 0;
  std::vector<Entry> entries;  ///< registration order

  /// nullptr when `name` is absent.
  const Entry* find(const std::string& name) const;

  /// Folds `other` into this snapshot (see the semantics above). Entries
  /// absent here are appended in `other`'s order; a name merged across
  /// different metric types or histogram bounds throws ConfigError.
  void merge_from(const MetricsSnapshot& other);
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the named metric, creating it on first use. Re-requesting a
  /// name returns the same instance; requesting it as a different metric
  /// type throws.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` applies on first registration only.
  Histogram& histogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot snapshot(Seconds sim_time) const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Named {
    std::string name;
    MetricsSnapshot::Type type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Named* find(const std::string& name);

  std::vector<Named> entries_;
};

}  // namespace vodx::obs
