// Wall-clock profiler for the simulator's hot paths.
//
// Unlike the event trace and metrics registry — which run on *sim* time and
// are part of the deterministic output — the profiler measures how long the
// simulator itself takes on real hardware. It never feeds a value back into
// sim logic, so determinism is untouched by construction; the reports it
// produces (vodxbench's per-layer zones) are explicitly wall-clock and
// machine-dependent.
//
// Usage: drop `VODX_PROFILE_ZONE("tcp.advance");` at the top of a scope.
// Zones nest; each labeled zone accumulates count, total (inclusive) and
// self (exclusive of child zones) nanoseconds in a thread-local table with
// no locking on the hot path.
//
// Cost contract:
//   * disabled (the default): one relaxed atomic load and a predictable
//     branch per zone;
//   * enabled: two steady_clock reads plus a small linear table update per
//     zone (~50 ns), all thread-local.
//
// Threading: each thread owns its table; a thread flushes into a global
// mutex-guarded aggregate when it exits (sweep workers join before any
// report is read). profiler_report() flushes the calling thread first, so
// single-threaded use needs no ceremony.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace vodx::obs {

/// Accumulated timings for one labeled zone.
struct ZoneStats {
  std::string name;
  std::uint64_t count = 0;     ///< times the zone was entered
  std::uint64_t total_ns = 0;  ///< inclusive of nested zones
  std::uint64_t self_ns = 0;   ///< exclusive of nested zones
};

namespace internal {
extern std::atomic<bool> g_profiling_enabled;

/// Per-thread zone table + frame stack. Users never touch this directly;
/// ProfileZone and the report functions are the API.
class ThreadProfiler {
 public:
  static ThreadProfiler& instance();
  ~ThreadProfiler();

  void enter(const char* name);
  void leave();

  /// Moves this thread's closed-zone data into the global aggregate.
  void flush();

  /// Drops this thread's data without flushing (open frames survive).
  void discard() { zones_.clear(); }

 private:
  struct Frame {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::vector<ZoneStats> zones_;
};
}  // namespace internal

/// Master switch, off by default. Safe to toggle at any time; zones opened
/// while enabled close normally after a disable.
void set_profiling_enabled(bool on);
inline bool profiling_enabled() {
  return internal::g_profiling_enabled.load(std::memory_order_relaxed);
}

/// Merged per-zone stats: every exited thread's flushed data plus the
/// calling thread's, sorted by total_ns descending (name ascending as the
/// tie-break). Zones still open on any thread are not included.
std::vector<ZoneStats> profiler_report();

/// Clears the global aggregate and the calling thread's table. Call only
/// while no other thread is inside a zone.
void profiler_reset();

/// RAII scoped timer — prefer the VODX_PROFILE_ZONE macros.
class ProfileZone {
 public:
  explicit ProfileZone(const char* name, bool timed = true) {
    if (timed && profiling_enabled()) {
      active_ = true;
      internal::ThreadProfiler::instance().enter(name);
    }
  }
  ~ProfileZone() {
    if (active_) internal::ThreadProfiler::instance().leave();
  }

  ProfileZone(const ProfileZone&) = delete;
  ProfileZone& operator=(const ProfileZone&) = delete;

 private:
  bool active_ = false;
};

#define VODX_PROFILE_CAT2(a, b) a##b
#define VODX_PROFILE_CAT(a, b) VODX_PROFILE_CAT2(a, b)
#define VODX_PROFILE_ZONE(name) \
  ::vodx::obs::ProfileZone VODX_PROFILE_CAT(vodx_profile_zone_, __LINE__) { \
    name                                                                    \
  }

/// A zone timed only when `timed` holds: for scopes entered so often (every
/// simulator tick) that timing each entry would cost more than the work
/// inside. Its count and times then cover the timed entries only.
#define VODX_PROFILE_ZONE_IF(name, timed)                                    \
  ::vodx::obs::ProfileZone VODX_PROFILE_CAT(vodx_profile_zone_, __LINE__) { \
    name, timed                                                             \
  }

}  // namespace vodx::obs
