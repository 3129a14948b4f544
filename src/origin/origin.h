// vodx::origin — resilient CDN/origin tier (ROADMAP item 2, DESIGN.md §16).
//
// The paper treated the server side as a black box; both related repos are
// nginx-vod-module variants — an origin that repackages MP4 → HLS/DASH on
// the fly, fronted by an edge cache and backed by more than one datacenter.
// This module models that tier as one http::Interceptor stage:
//
//   * per-request packaging latency (manifest vs segment, rung-size
//     dependent) on every fetch that reaches an origin,
//   * an edge cache (LRU + TTL) with request coalescing — one miss in
//     flight serves N waiters — and a switch to disable coalescing so
//     cache-miss storms under flash crowds are reproducible,
//   * a two-datacenter topology: bounded retries with seeded jittered
//     backoff against the primary, a consecutive-failure circuit breaker
//     that trips to the secondary, and half-open probing to recover.
//
// Determinism contract: every stochastic draw (retry jitter) is a pure
// splitmix64 hash of (options seed, per-session request ordinal, attempt) —
// the same discipline as faults::FaultInjector. Retries never schedule
// simulator events; backoff is *virtual* time accumulated into the
// response's added_latency, so a departure mid-backoff can never leak a
// scheduled event. Cache and breaker state may be shared by every session
// of a tower (single-threaded per tower), and all of it evolves only from
// the deterministic request order — byte-identical at any --jobs.
//
// Registered FIRST on the proxy chain: its request stage runs before the
// probes and the fault injector (an edge hit short-circuits the origin and
// any injected origin error — the cache absorbs origin-side pathology), and
// its response stage runs LAST, after the injector's — injected errors and
// resets register as primary-DC failures, so every faults::FaultPlan
// pathology composes against the failover machinery for free.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "faults/fault_plan.h"
#include "http/interceptor.h"
#include "obs/observer.h"

namespace vodx::origin {

enum class Mode {
  kNone,      ///< no origin tier: the plain single-origin path
  kNaive,     ///< cache without coalescing, no retries, no secondary DC
  kHardened,  ///< coalescing + bounded retries + breaker failover
};

const char* to_string(Mode mode);
/// Parses "none" | "naive" | "hardened"; throws ConfigError otherwise.
Mode parse_mode(const std::string& name);

struct OriginOptions {
  Mode mode = Mode::kNone;

  // Packaging: the nginx-vod-module cost of repackaging MP4 into the
  // protocol's container per request. Segments scale with their size.
  Seconds manifest_package_s = 0.030;
  Seconds segment_package_base_s = 0.012;
  Seconds segment_package_per_mb_s = 0.008;

  // Edge cache.
  int cache_capacity = 512;     ///< entries; LRU eviction beyond this
  Seconds cache_ttl_s = 120;    ///< entry lifetime from fill time
  Seconds cache_hit_s = 0.002;  ///< edge service latency on a hit
  bool coalesce = true;         ///< misses join an in-flight fill

  // Failover. retry_budget 0 = no retries; breaker_threshold 0 = no
  // breaker and no secondary DC (failures always propagate).
  int retry_budget = 2;
  Seconds backoff_base_s = 0.25;    ///< doubles per attempt
  Seconds backoff_jitter_s = 0.25;  ///< uniform extra in [0, jitter)
  int breaker_threshold = 3;        ///< consecutive failures before tripping
  Seconds breaker_cooldown_s = 15;  ///< open time before a half-open probe
  Seconds secondary_extra_s = 0.080;  ///< extra RTT to the secondary DC

  std::uint64_t seed = 1;  ///< retry-jitter stream

  /// Throws ConfigError on degenerate knobs (zero TTL, zero capacity,
  /// non-positive backoff with retries enabled, ...). Only meaningful when
  /// mode != kNone.
  void validate() const;
};

/// The canonical presets the CLI/sweep "origin" axis names.
OriginOptions naive_origin();
OriginOptions hardened_origin();
/// preset(kNone) returns a default (disabled) options struct.
OriginOptions preset(Mode mode);

/// Cache + breaker state. One per session by default; a population tower
/// shares one across every session it hosts (the tower's simulator is
/// single-threaded, so no locking — determinism comes from event order).
struct OriginState {
  struct Totals {
    long long hits = 0;
    long long misses = 0;
    long long expired = 0;
    long long coalesced = 0;
    long long dup_fills = 0;
    long long flushes = 0;
    long long consistency_failures = 0;
    long long retries = 0;
    long long trips = 0;
    long long probes = 0;
    long long secondary = 0;
    long long errors = 0;  ///< failures propagated to the client

    void merge_from(const Totals& other);
  };

  struct Entry {
    http::Response response;  ///< canonical: no wire-fault fields set
    std::uint64_t digest = 0;
    Seconds expires = 0;
    Seconds ready_at = 0;  ///< the edge has the bytes from here on
    std::uint64_t lru = 0;  ///< last-use tick; this entry's key in lru_index
  };
  using Entries = std::map<std::string, Entry>;

  OriginState() = default;
  // lru_index points into `entries`; a copy would point into the original.
  OriginState(const OriginState&) = delete;
  OriginState& operator=(const OriginState&) = delete;

  Totals totals;
  Entries entries;
  /// Every entry by its last-use tick, so the eviction victim (the smallest
  /// tick) is begin() and a touch re-keys one node: no scan of `entries`.
  /// Change `entries` only through touch/fill/erase/clear, which keep the
  /// two in step.
  std::map<std::uint64_t, Entries::iterator> lru_index;
  std::uint64_t lru_tick = 0;
  Seconds last_flush = -1;  ///< cache-flush schedule high-water mark

  // Breaker (closed -> open on threshold consecutive failures -> half-open
  // probe after the cooldown -> closed on success / re-open on failure).
  bool breaker_open = false;
  Seconds opened_at = 0;
  int consecutive_failures = 0;
  int max_consecutive_failures = 0;

  /// Marks `it` most recently used.
  void touch(Entries::iterator it);
  /// Inserts or replaces `key` as the most recently used entry, then evicts
  /// least recently used entries until at most `capacity` remain.
  void fill(const std::string& key, Entry entry, std::size_t capacity);
  void erase(Entries::iterator it);
  void clear();
};

/// FNV-1a digest of a response's identity (status, content type, body,
/// payload size) — what the cache.consistency invariant compares.
std::uint64_t response_digest(const http::Response& response);

class OriginTier : public http::Interceptor {
 public:
  /// `state` may be shared across sessions; null allocates private state.
  /// `cache_scope` namespaces this session's keys (service + content seed):
  /// two sessions share cached bytes only when they stream the same title.
  OriginTier(OriginOptions options, std::shared_ptr<OriginState> state,
             std::string cache_scope);

  /// Origin-targeted fault windows from the session's FaultPlan.
  void set_fault_schedule(std::vector<faults::CacheFlushFault> flushes,
                          std::vector<faults::DcBlackoutFault> dc_blackouts);
  void set_observer(obs::Observer* observer);

  const OriginState& state() const { return *state_; }
  const OriginOptions& options() const { return options_; }

  void attach(http::Proxy& proxy) override;
  std::optional<http::Response> on_request(const http::Request& request,
                                           Seconds now) override;
  void on_response(const http::Request& request, http::Response& response,
                   Seconds now) override;

 private:
  bool breaker_enabled() const { return options_.breaker_threshold > 0; }
  bool primary_dark(Seconds when) const;
  double draw(std::uint64_t tag, std::uint64_t index) const;
  Seconds packaging(const http::Response& response) const;
  std::string cache_key(const http::Request& request) const;
  void apply_flushes(Seconds now);
  void verify_consistency(const http::Request& request,
                          const OriginState::Entry& entry, Seconds now);
  /// Fetches the canonical response from the given DC replica (the model
  /// origin is deterministic, so both DCs serve identical bytes).
  http::Response fetch_origin(const http::Request& request) const;
  void fill_cache(const std::string& key, const http::Response& canonical,
                  Seconds now, Seconds ready_at);
  void serve_secondary(const http::Request& request, http::Response& response,
                       Seconds& origin_wait, Seconds now);
  void count(obs::Counter* counter);
  void instant(const char* name, const http::Request& request, Seconds now,
               double wait_s);

  OriginOptions options_;
  std::shared_ptr<OriginState> state_;
  std::string cache_scope_;
  std::vector<faults::CacheFlushFault> flushes_;
  std::vector<faults::DcBlackoutFault> dc_blackouts_;
  const http::Proxy* proxy_ = nullptr;

  /// One ordinal per proxied request, advanced in on_response (which runs
  /// exactly once per resolve); the retry-jitter stream is keyed on it.
  std::uint64_t ordinal_ = 0;
  /// resolve() is synchronous: set by on_request when it short-circuits
  /// from the cache, consumed by the same request's on_response.
  bool pending_hit_ = false;

  obs::Observer* obs_ = nullptr;
  int obs_track_ = 0;
  obs::Counter* c_hits_ = nullptr;
  obs::Counter* c_misses_ = nullptr;
  obs::Counter* c_expired_ = nullptr;
  obs::Counter* c_coalesced_ = nullptr;
  obs::Counter* c_dup_fills_ = nullptr;
  obs::Counter* c_flushes_ = nullptr;
  obs::Counter* c_consistency_ = nullptr;
  obs::Counter* c_retries_ = nullptr;
  obs::Counter* c_trips_ = nullptr;
  obs::Counter* c_probes_ = nullptr;
  obs::Counter* c_secondary_ = nullptr;
  obs::Counter* c_errors_ = nullptr;
  obs::Gauge* g_max_consec_ = nullptr;
};

}  // namespace vodx::origin
