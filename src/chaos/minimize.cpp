#include "chaos/minimize.h"

#include <algorithm>

namespace vodx::chaos {

namespace {

/// Binary-search depth per window edge.
constexpr int kNarrowSteps = 4;

/// A fault's position in the plan, independent of kind, so the drop pass
/// can treat the plan as one flat list.
struct FaultRef {
  enum Kind {
    kLatency,
    kError,
    kReset,
    kReject,
    kBlackout,
    kCacheFlush,
    kDcBlackout,
  } kind;
  std::size_t index;
};

std::vector<FaultRef> flatten(const faults::FaultPlan& plan) {
  std::vector<FaultRef> refs;
  for (std::size_t i = 0; i < plan.latency.size(); ++i) {
    refs.push_back({FaultRef::kLatency, i});
  }
  for (std::size_t i = 0; i < plan.errors.size(); ++i) {
    refs.push_back({FaultRef::kError, i});
  }
  for (std::size_t i = 0; i < plan.resets.size(); ++i) {
    refs.push_back({FaultRef::kReset, i});
  }
  for (std::size_t i = 0; i < plan.rejects.size(); ++i) {
    refs.push_back({FaultRef::kReject, i});
  }
  for (std::size_t i = 0; i < plan.blackouts.size(); ++i) {
    refs.push_back({FaultRef::kBlackout, i});
  }
  for (std::size_t i = 0; i < plan.cache_flushes.size(); ++i) {
    refs.push_back({FaultRef::kCacheFlush, i});
  }
  for (std::size_t i = 0; i < plan.dc_blackouts.size(); ++i) {
    refs.push_back({FaultRef::kDcBlackout, i});
  }
  return refs;
}

faults::FaultPlan without(const faults::FaultPlan& plan, const FaultRef& ref) {
  faults::FaultPlan out = plan;
  switch (ref.kind) {
    case FaultRef::kLatency:
      out.latency.erase(out.latency.begin() + ref.index);
      break;
    case FaultRef::kError:
      out.errors.erase(out.errors.begin() + ref.index);
      break;
    case FaultRef::kReset:
      out.resets.erase(out.resets.begin() + ref.index);
      break;
    case FaultRef::kReject:
      out.rejects.erase(out.rejects.begin() + ref.index);
      break;
    case FaultRef::kBlackout:
      out.blackouts.erase(out.blackouts.begin() + ref.index);
      break;
    case FaultRef::kCacheFlush:
      out.cache_flushes.erase(out.cache_flushes.begin() + ref.index);
      break;
    case FaultRef::kDcBlackout:
      out.dc_blackouts.erase(out.dc_blackouts.begin() + ref.index);
      break;
  }
  return out;
}

using Oracle = std::function<bool(const faults::FaultPlan&)>;

struct Budget {
  int remaining;
  int spent = 0;

  bool try_run(const Oracle& oracle, const faults::FaultPlan& candidate,
               bool* failed) {
    if (remaining <= 0) return false;
    --remaining;
    ++spent;
    *failed = oracle(candidate);
    return true;
  }
};

/// Phase 1: greedy drop passes to a fixpoint. One-at-a-time removal is
/// O(n^2) oracle calls worst case, but plans are tiny (<= ~8 faults) and
/// it finds 1-minimal results, which classic ddmin only approximates.
void drop_faults(faults::FaultPlan& best, const Oracle& oracle,
                 Budget& budget, int* dropped) {
  bool progress = true;
  while (progress && budget.remaining > 0) {
    progress = false;
    const std::vector<FaultRef> refs = flatten(best);
    if (refs.size() <= 1) return;
    for (const FaultRef& ref : refs) {
      bool failed = false;
      if (!budget.try_run(oracle, without(best, ref), &failed)) return;
      if (failed) {
        best = without(best, ref);
        ++*dropped;
        progress = true;
        break;  // indices shifted; restart the pass on the smaller plan
      }
    }
  }
}

/// Tries `mutate(best)`; keeps it when the oracle still fails. Returns
/// whether the mutation was kept.
bool try_keep(faults::FaultPlan& best, const Oracle& oracle, Budget& budget,
              const std::function<void(faults::FaultPlan&)>& mutate) {
  faults::FaultPlan candidate = best;
  mutate(candidate);
  bool failed = false;
  if (!budget.try_run(oracle, candidate, &failed)) return false;
  if (failed) best = std::move(candidate);
  return failed;
}

/// Phase 2: shrink each fault's time window by halving steps from both
/// edges. Works on whichever Match the fault carries; blackouts narrow
/// their duration in phase 3 instead.
void narrow_windows(faults::FaultPlan& best, const Oracle& oracle,
                    Budget& budget, Seconds horizon) {
  const auto narrow = [&](auto member) {
    const std::size_t n = (best.*member).size();
    for (std::size_t i = 0; i < n && i < (best.*member).size(); ++i) {
      for (int step = 0; step < kNarrowSteps && budget.remaining > 0;
           ++step) {
        faults::Match& match = (best.*member)[i].match;
        const Seconds end = match.end < 0 ? horizon : match.end;
        const Seconds width = end - match.start;
        if (width <= 1) break;
        // Later start first (faults usually bite once the session is
        // warmed up), then earlier end.
        const bool kept_start = try_keep(
            best, oracle, budget, [&, i](faults::FaultPlan& candidate) {
              (candidate.*member)[i].match.start += width / 2;
            });
        if (!kept_start && budget.remaining > 0) {
          try_keep(best, oracle, budget,
                   [&, i, end, width](faults::FaultPlan& candidate) {
                     (candidate.*member)[i].match.end = end - width / 2;
                   });
        }
      }
    }
  };
  narrow(&faults::FaultPlan::latency);
  narrow(&faults::FaultPlan::errors);
  narrow(&faults::FaultPlan::resets);
  narrow(&faults::FaultPlan::rejects);
}

/// Phase 3: halve intensities toward a floor while the oracle still fails.
void soften(faults::FaultPlan& best, const Oracle& oracle, Budget& budget) {
  for (std::size_t i = 0; i < best.latency.size(); ++i) {
    while (best.latency[i].base > 0.1 && budget.remaining > 0 &&
           try_keep(best, oracle, budget, [i](faults::FaultPlan& candidate) {
             candidate.latency[i].base /= 2;
             candidate.latency[i].jitter /= 2;
           })) {
    }
  }
  const auto halve_probability = [&](auto member) {
    for (std::size_t i = 0; i < (best.*member).size(); ++i) {
      while ((best.*member)[i].probability > 0.1 && budget.remaining > 0 &&
             try_keep(best, oracle, budget,
                      [i, member](faults::FaultPlan& candidate) {
                        (candidate.*member)[i].probability /= 2;
                      })) {
      }
    }
  };
  halve_probability(&faults::FaultPlan::errors);
  halve_probability(&faults::FaultPlan::resets);
  halve_probability(&faults::FaultPlan::rejects);
  for (std::size_t i = 0; i < best.blackouts.size(); ++i) {
    while (best.blackouts[i].duration > 1 && budget.remaining > 0 &&
           try_keep(best, oracle, budget, [i](faults::FaultPlan& candidate) {
             candidate.blackouts[i].duration /= 2;
           })) {
    }
  }
  for (std::size_t i = 0; i < best.dc_blackouts.size(); ++i) {
    while (best.dc_blackouts[i].duration > 1 && budget.remaining > 0 &&
           try_keep(best, oracle, budget, [i](faults::FaultPlan& candidate) {
             candidate.dc_blackouts[i].duration /= 2;
           })) {
    }
  }
}

}  // namespace

std::size_t fault_count(const faults::FaultPlan& plan) {
  return plan.latency.size() + plan.errors.size() + plan.resets.size() +
         plan.rejects.size() + plan.blackouts.size() +
         plan.cache_flushes.size() + plan.dc_blackouts.size();
}

MinimizeResult minimize(const faults::FaultPlan& plan, const Oracle& oracle) {
  MinimizeResult result;
  result.plan = plan;
  Budget budget{kMinimizeRuns};

  // Horizon for open-ended windows: the latest explicit edge in the plan,
  // or a default fuzz horizon. Only used to give narrowing a finite end.
  Seconds horizon = 120;
  for (const faults::BlackoutFault& b : plan.blackouts) {
    horizon = std::max(horizon, b.start + b.duration);
  }
  for (const faults::DcBlackoutFault& b : plan.dc_blackouts) {
    horizon = std::max(horizon, b.start + b.duration);
  }

  drop_faults(result.plan, oracle, budget, &result.dropped);
  narrow_windows(result.plan, oracle, budget, horizon);
  soften(result.plan, oracle, budget);

  result.runs = budget.spent;
  result.plan.name = plan.name + "-min";
  return result;
}

}  // namespace vodx::chaos
