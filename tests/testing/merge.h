// a ⊕ b for any mergeable value type (MetricsSnapshot, Timeline): a copy of
// `a` with `b` folded in, so merge-algebra tests read as equations.
#pragma once

namespace vodx::testing {

template <typename T>
T merge(T a, const T& b) {
  a.merge_from(b);
  return a;
}

}  // namespace vodx::testing
