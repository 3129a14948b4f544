#include "obs/metrics.h"

#include <algorithm>

#include "common/error.h"

namespace vodx::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  VODX_ASSERT(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram bounds must ascend");
  buckets_.assign(bounds_.size() + 1, 0);
}

void Histogram::record(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++buckets_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
  if (count_ == 1) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
}

double Histogram::quantile(double q) const {
  return bucket_quantile(bounds_, buckets_, count_, min(), max(), q);
}

double bucket_quantile(const std::vector<double>& bounds,
                       const std::vector<std::int64_t>& buckets,
                       std::int64_t count, double min, double max, double q) {
  if (count <= 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Snapshots are value types, so entries can reach us hand-built or
  // partially merged; an incoherent min/max pair must not poison the
  // interpolation below, so fall back to raw bucket edges in that case.
  const bool stats_ok = min <= max;
  const double target = q * static_cast<double>(count);
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] <= 0) continue;
    const std::int64_t before = seen;
    seen += buckets[i];
    if (static_cast<double>(seen) >= target) {
      // Interpolate within the winning bucket rather than reporting its
      // upper bound: bucket edges clamp to the observed [min, max] so a
      // single-sample bucket reports the neighbourhood of the sample, not
      // an edge it never reached.
      double lo = i == 0 ? (stats_ok ? min : (bounds.empty() ? 0 : bounds[0]))
                         : (stats_ok ? std::max(bounds[i - 1], min)
                                     : bounds[i - 1]);
      double hi = i < bounds.size()
                      ? (stats_ok ? std::min(bounds[i], max) : bounds[i])
                      : (stats_ok ? max : lo);
      if (hi < lo) hi = lo;
      const double frac = std::clamp(
          (target - static_cast<double>(before)) /
              static_cast<double>(buckets[i]),
          0.0, 1.0);
      return lo + frac * (hi - lo);
    }
  }
  // count > 0 but every bucket empty: an inconsistent, hand-built entry.
  // Report the only defensible point estimate rather than interpolating.
  return stats_ok ? max : 0;
}

const MetricsSnapshot::Entry* MetricsSnapshot::find(
    const std::string& name) const {
  for (const Entry& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

namespace {

void refresh_histogram_stats(MetricsSnapshot::Entry& entry) {
  entry.mean = entry.count > 0
                   ? entry.value / static_cast<double>(entry.count)
                   : 0;
  entry.p50 = bucket_quantile(entry.bounds, entry.buckets, entry.count,
                              entry.min, entry.max, 0.5);
  entry.p90 = bucket_quantile(entry.bounds, entry.buckets, entry.count,
                              entry.min, entry.max, 0.9);
  entry.p99 = bucket_quantile(entry.bounds, entry.buckets, entry.count,
                              entry.min, entry.max, 0.99);
}

void merge_entry(MetricsSnapshot::Entry& mine,
                 const MetricsSnapshot::Entry& theirs) {
  if (mine.type != theirs.type) {
    throw ConfigError("metric '" + mine.name +
                      "' merged across different types");
  }
  switch (mine.type) {
    case MetricsSnapshot::Type::kCounter:
      mine.count += theirs.count;
      mine.time = std::max(mine.time, theirs.time);
      break;
    case MetricsSnapshot::Type::kGauge:
      // Last write by sim time; the right operand wins ties, which together
      // with per-entry times keeps the merge associative even when a gauge
      // is absent from some snapshots.
      if (theirs.time >= mine.time) {
        mine.value = theirs.value;
        mine.time = theirs.time;
      }
      break;
    case MetricsSnapshot::Type::kHistogram: {
      if (theirs.count == 0) break;  // empty histogram is the identity
      if (mine.count == 0) {
        const std::string name = mine.name;
        mine = theirs;
        mine.name = name;
        break;
      }
      if (mine.bounds != theirs.bounds ||
          mine.buckets.size() != theirs.buckets.size()) {
        throw ConfigError("histogram '" + mine.name +
                          "' merged across different bucket bounds");
      }
      for (std::size_t i = 0; i < mine.buckets.size(); ++i) {
        mine.buckets[i] += theirs.buckets[i];
      }
      mine.count += theirs.count;
      mine.value += theirs.value;
      mine.min = std::min(mine.min, theirs.min);
      mine.max = std::max(mine.max, theirs.max);
      mine.time = std::max(mine.time, theirs.time);
      refresh_histogram_stats(mine);
      break;
    }
  }
}

}  // namespace

void MetricsSnapshot::merge_from(const MetricsSnapshot& other) {
  sim_time = std::max(sim_time, other.sim_time);
  for (const Entry& theirs : other.entries) {
    Entry* mine = nullptr;
    for (Entry& entry : entries) {
      if (entry.name == theirs.name) {
        mine = &entry;
        break;
      }
    }
    if (mine == nullptr) {
      entries.push_back(theirs);
    } else {
      merge_entry(*mine, theirs);
    }
  }
}

MetricsRegistry::Named* MetricsRegistry::find(const std::string& name) {
  for (Named& entry : entries_) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  if (Named* existing = find(name)) {
    VODX_ASSERT(existing->type == MetricsSnapshot::Type::kCounter,
                "metric '" + name + "' registered as a different type");
    return *existing->counter;
  }
  Named named;
  named.name = name;
  named.type = MetricsSnapshot::Type::kCounter;
  named.counter = std::make_unique<Counter>();
  entries_.push_back(std::move(named));
  return *entries_.back().counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  if (Named* existing = find(name)) {
    VODX_ASSERT(existing->type == MetricsSnapshot::Type::kGauge,
                "metric '" + name + "' registered as a different type");
    return *existing->gauge;
  }
  Named named;
  named.name = name;
  named.type = MetricsSnapshot::Type::kGauge;
  named.gauge = std::make_unique<Gauge>();
  entries_.push_back(std::move(named));
  return *entries_.back().gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  if (Named* existing = find(name)) {
    VODX_ASSERT(existing->type == MetricsSnapshot::Type::kHistogram,
                "metric '" + name + "' registered as a different type");
    return *existing->histogram;
  }
  Named named;
  named.name = name;
  named.type = MetricsSnapshot::Type::kHistogram;
  named.histogram = std::make_unique<Histogram>(std::move(bounds));
  entries_.push_back(std::move(named));
  return *entries_.back().histogram;
}

MetricsSnapshot MetricsRegistry::snapshot(Seconds sim_time) const {
  MetricsSnapshot snap;
  snap.sim_time = sim_time;
  snap.entries.reserve(entries_.size());
  for (const Named& named : entries_) {
    MetricsSnapshot::Entry entry;
    entry.name = named.name;
    entry.type = named.type;
    entry.time = sim_time;
    switch (named.type) {
      case MetricsSnapshot::Type::kCounter:
        entry.count = named.counter->value();
        break;
      case MetricsSnapshot::Type::kGauge:
        entry.value = named.gauge->value();
        break;
      case MetricsSnapshot::Type::kHistogram: {
        const Histogram& h = *named.histogram;
        entry.count = h.count();
        entry.value = h.sum();
        entry.min = h.min();
        entry.mean = h.mean();
        entry.p50 = h.quantile(0.5);
        entry.p90 = h.quantile(0.9);
        entry.p99 = h.quantile(0.99);
        entry.max = h.max();
        entry.bounds = h.bounds();
        entry.buckets = h.buckets();
        break;
      }
    }
    snap.entries.push_back(std::move(entry));
  }
  return snap;
}

}  // namespace vodx::obs
