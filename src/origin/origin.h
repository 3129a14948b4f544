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
// pathology composes against the failover machinery for free. The proxy's
// manifest stage runs after every response stage, so the edge caches, and
// a retry or failover serves, the body the origin sent; a session's
// manifest probes rewrite it on the way out, for that session alone.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
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

// Packaging: the nginx-vod-module cost of repackaging MP4 into the
// protocol's container per request. Segments scale with their size.
inline constexpr Seconds kManifestPackaging = 0.030;
inline constexpr Seconds kSegmentPackagingBase = 0.012;
inline constexpr Seconds kSegmentPackagingPerMb = 0.008;
/// Edge service latency on a cache hit.
inline constexpr Seconds kCacheHitLatency = 0.002;
/// Uniform extra in [0, kBackoffJitter) on each retry backoff.
inline constexpr Seconds kBackoffJitter = 0.25;
/// Extra RTT to the secondary DC.
inline constexpr Seconds kSecondaryExtraLatency = 0.080;

struct OriginOptions {
  Mode mode = Mode::kNone;

  // Edge cache.
  int cache_capacity = 512;     ///< entries; LRU eviction beyond this
  Seconds cache_ttl_s = 120;    ///< entry lifetime from fill time
  bool coalesce = true;         ///< misses join an in-flight fill

  // Failover. retry_budget 0 = no retries; breaker_threshold 0 = no
  // breaker and no secondary DC (failures always propagate).
  int retry_budget = 2;
  Seconds backoff_base_s = 0.25;    ///< doubles per attempt
  int breaker_threshold = 3;        ///< consecutive failures before tripping
  Seconds breaker_cooldown_s = 15;  ///< open time before a half-open probe

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
///
/// The edge cache is a hash index over an LRU list. Neither is ever
/// iterated to produce output, so their order cannot reach a report.
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

  /// What a cached response answers: the title (a scope id interned by
  /// intern()), the method, the URL and the byte range. `url` is a view: a
  /// lookup views the request's URL, the index views its entry's own copy.
  /// `hash` covers every other field; make() computes it once per request.
  struct Key {
    std::uint32_t scope = 0;
    http::Method method = http::Method::kGet;
    std::string_view url;
    std::optional<manifest::ByteRange> range;
    std::size_t hash = 0;

    static Key make(std::uint32_t scope, const http::Request& request);
    bool operator==(const Key& other) const;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const { return key.hash; }
  };

  /// One cached response. `filler` records who filled it; with the method,
  /// URL and range of `key`, a hit compares it field by field with the
  /// requester's key, apart from the index's hash and equality. Titles are
  /// immutable, so the bytes a key's filler got are the bytes its requester
  /// would get now, and a mismatch can only be a key that ignores part of
  /// the identity (the cache.consistency invariant).
  struct Entry {
    Entry() = default;
    // key.url views this entry's own url buffer.
    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;

    Key key;  ///< as the index holds it
    std::string url;
    std::uint32_t filler = 0;  ///< scope id of the tier that filled it
    http::Response response;  ///< canonical: no wire-fault fields set
    Seconds expires = 0;
    Seconds ready_at = 0;  ///< the edge has the bytes from here on

    /// True when `requester` asks for what this entry's filler asked for.
    bool filled_for(const Key& requester) const;
  };
  /// Least recently used first: eviction takes front(), a touch splices a
  /// node to the back.
  using Lru = std::list<Entry>;

  OriginState() = default;
  // `index` points into `lru` and views its URLs; a copy would point into
  // the original.
  OriginState(const OriginState&) = delete;
  OriginState& operator=(const OriginState&) = delete;

  Totals totals;
  Lru lru;
  /// Every entry of `lru` by its key. Change the cache only through
  /// touch/fill/erase/clear, which keep the two in step.
  std::unordered_map<Key, Lru::iterator, KeyHash> index;
  /// Interned cache scopes: a scope's id is its position here.
  std::vector<std::string> scopes;
  Seconds last_flush = -1;  ///< cache-flush schedule high-water mark

  // Breaker (closed -> open on threshold consecutive failures -> half-open
  // probe after the cooldown -> closed on success / re-open on failure).
  bool breaker_open = false;
  Seconds opened_at = 0;
  int consecutive_failures = 0;
  int max_consecutive_failures = 0;

  /// The id of `scope`, interning it on first use.
  std::uint32_t intern(const std::string& scope);
  /// The entry cached under `key`, or lru.end().
  Lru::iterator find(const Key& key);
  /// Marks `it` most recently used.
  void touch(Lru::iterator it);
  /// Makes `key` the most recently used entry and returns it with its
  /// filler set; its response and times are the caller's to fill. At
  /// capacity the least recently used entry is evicted and its list node,
  /// index node and URL buffer take the new key, so a full cache allocates
  /// nothing for it.
  Entry& fill(const Key& key, std::size_t capacity);
  void erase(Lru::iterator it);
  void clear();
};

class OriginTier : public http::Interceptor {
 public:
  /// `state` may be shared across sessions; null allocates private state.
  /// `cache_scope` namespaces this session's keys (service + content seed):
  /// two sessions share cached bytes only when they stream the same title.
  OriginTier(OriginOptions options, std::shared_ptr<OriginState> state,
             const std::string& cache_scope);

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
  void apply_flushes(Seconds now);
  void verify_consistency(const http::Request& request,
                          const OriginState::Entry& entry, Seconds now);
  /// Fetches the canonical response from the given DC replica (the model
  /// origin is deterministic, so both DCs serve identical bytes).
  http::Response fetch_origin(const http::Request& request) const;
  void fill_cache(const http::Response& response, Seconds now,
                  Seconds ready_at);
  void serve_secondary(const http::Request& request, http::Response& response,
                       Seconds& origin_wait, Seconds now);
  void count(obs::Counter* counter);
  void instant(const char* name, const http::Request& request, Seconds now,
               double wait_s);

  OriginOptions options_;
  std::shared_ptr<OriginState> state_;
  std::uint32_t scope_ = 0;  ///< cache_scope interned in state_
  std::vector<faults::CacheFlushFault> flushes_;
  std::vector<faults::DcBlackoutFault> dc_blackouts_;
  const http::Proxy* proxy_ = nullptr;

  /// One ordinal per proxied request, advanced in on_response (which runs
  /// exactly once per resolve); the retry-jitter stream is keyed on it.
  std::uint64_t ordinal_ = 0;
  /// resolve() is synchronous, and the tier is first on the chain, so its
  /// on_request and on_response see the same request: on_request keys it
  /// once (the URL view lives as long as the request), and sets
  /// pending_hit_ when it short-circuits from the cache.
  OriginState::Key pending_key_;
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
