#include "origin/origin.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"
#include "common/strings.h"
#include "http/proxy.h"

namespace vodx::origin {

namespace {

// splitmix64 finalizer — the same mixer faults::FaultInjector uses, so the
// jitter stream obeys the repo-wide purity discipline.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kTagBackoff = 0x0B;

/// A failed primary fetch: an HTTP error, or a wire reset scheduled by an
/// earlier (fault-injecting) response stage.
bool is_failure(const http::Response& response) {
  return !response.ok() || response.reset_after >= 0;
}

}  // namespace

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kNone: return "none";
    case Mode::kNaive: return "naive";
    case Mode::kHardened: return "hardened";
  }
  return "?";
}

Mode parse_mode(const std::string& name) {
  if (name == "none") return Mode::kNone;
  if (name == "naive") return Mode::kNaive;
  if (name == "hardened") return Mode::kHardened;
  throw ConfigError(
      format("unknown origin mode '%s' (none|naive|hardened)", name.c_str()));
}

void OriginOptions::validate() const {
  if (cache_capacity <= 0) {
    throw ConfigError(format("origin cache capacity must be positive (got %d)",
                             cache_capacity));
  }
  if (cache_ttl_s <= 0) {
    throw ConfigError(
        format("origin cache TTL must be positive (got %g s)", cache_ttl_s));
  }
  if (retry_budget < 0) {
    throw ConfigError(
        format("origin retry budget must be >= 0 (got %d)", retry_budget));
  }
  if (retry_budget > 0 && backoff_base_s <= 0) {
    throw ConfigError(format(
        "origin retry backoff must be positive (got %g s)", backoff_base_s));
  }
  if (breaker_threshold < 0) {
    throw ConfigError(format("origin breaker threshold must be >= 0 (got %d)",
                             breaker_threshold));
  }
  if (breaker_threshold > 0 && breaker_cooldown_s <= 0) {
    throw ConfigError(
        format("origin breaker cooldown must be positive (got %g s)",
               breaker_cooldown_s));
  }
}

OriginOptions naive_origin() {
  OriginOptions options;
  options.mode = Mode::kNaive;
  options.coalesce = false;
  options.retry_budget = 0;
  options.breaker_threshold = 0;  // single DC: failures always propagate
  return options;
}

OriginOptions hardened_origin() {
  OriginOptions options;
  options.mode = Mode::kHardened;
  return options;
}

OriginOptions preset(Mode mode) {
  switch (mode) {
    case Mode::kNaive: return naive_origin();
    case Mode::kHardened: return hardened_origin();
    case Mode::kNone: break;
  }
  return OriginOptions{};
}

void OriginState::Totals::merge_from(const Totals& other) {
  hits += other.hits;
  misses += other.misses;
  expired += other.expired;
  coalesced += other.coalesced;
  dup_fills += other.dup_fills;
  flushes += other.flushes;
  consistency_failures += other.consistency_failures;
  retries += other.retries;
  trips += other.trips;
  probes += other.probes;
  secondary += other.secondary;
  errors += other.errors;
}

OriginState::Key OriginState::Key::make(std::uint32_t scope,
                                        const http::Request& request) {
  Key key{scope, request.method, request.url, request.range, 0};
  std::uint64_t h = mix64(std::hash<std::string_view>{}(key.url) + scope);
  h = mix64(h + static_cast<std::uint64_t>(key.method));
  if (key.range) {
    h = mix64(h + static_cast<std::uint64_t>(key.range->first));
    h = mix64(h + static_cast<std::uint64_t>(key.range->last));
  }
  key.hash = static_cast<std::size_t>(h);
  return key;
}

bool OriginState::Key::operator==(const Key& other) const {
  return hash == other.hash && scope == other.scope &&
         method == other.method && range == other.range && url == other.url;
}

bool OriginState::Entry::filled_for(const Key& requester) const {
  return filler == requester.scope && key.method == requester.method &&
         key.range == requester.range && key.url == requester.url;
}

std::uint32_t OriginState::intern(const std::string& scope) {
  const auto it = std::find(scopes.begin(), scopes.end(), scope);
  if (it == scopes.end()) {
    scopes.push_back(scope);
    return static_cast<std::uint32_t>(scopes.size() - 1);
  }
  return static_cast<std::uint32_t>(it - scopes.begin());
}

OriginState::Lru::iterator OriginState::find(const Key& key) {
  const auto it = index.find(key);
  return it == index.end() ? lru.end() : it->second;
}

void OriginState::touch(Lru::iterator it) {
  lru.splice(lru.end(), lru, it);
}

OriginState::Entry& OriginState::fill(const Key& key, std::size_t capacity) {
  Lru::iterator it = find(key);
  if (it == lru.end()) {
    decltype(index)::node_type node;
    if (lru.size() >= capacity) {
      // Evict the coldest entry; its list node, index node and URL buffer
      // take the new key.
      it = lru.begin();
      node = index.extract(it->key);
    } else {
      it = lru.emplace(lru.end());
    }
    it->url.assign(key.url);
    it->key = key;
    it->key.url = it->url;
    if (node.empty()) {
      index.emplace(it->key, it);
    } else {
      node.key() = it->key;
      node.mapped() = it;
      index.insert(std::move(node));
    }
  }
  it->filler = key.scope;
  touch(it);
  return *it;
}

void OriginState::erase(Lru::iterator it) {
  index.erase(it->key);
  lru.erase(it);
}

void OriginState::clear() {
  index.clear();
  lru.clear();
}

OriginTier::OriginTier(OriginOptions options,
                       std::shared_ptr<OriginState> state,
                       const std::string& cache_scope)
    : options_(options),
      state_(state != nullptr ? std::move(state)
                              : std::make_shared<OriginState>()),
      scope_(state_->intern(cache_scope)) {
  options_.validate();
}

void OriginTier::set_fault_schedule(
    std::vector<faults::CacheFlushFault> flushes,
    std::vector<faults::DcBlackoutFault> dc_blackouts) {
  flushes_ = std::move(flushes);
  dc_blackouts_ = std::move(dc_blackouts);
  std::sort(flushes_.begin(), flushes_.end(),
            [](const faults::CacheFlushFault& a,
               const faults::CacheFlushFault& b) { return a.at < b.at; });
}

void OriginTier::set_observer(obs::Observer* observer) {
  obs_ = observer;
  if (obs_ == nullptr) {
    c_hits_ = c_misses_ = c_expired_ = c_coalesced_ = c_dup_fills_ =
        c_flushes_ = c_consistency_ = c_retries_ = c_trips_ = c_probes_ =
            c_secondary_ = c_errors_ = nullptr;
    g_max_consec_ = nullptr;
    return;
  }
  obs_track_ = obs_->trace.track("origin");
  c_hits_ = &obs_->metrics.counter("origin.cache.hits");
  c_misses_ = &obs_->metrics.counter("origin.cache.misses");
  c_expired_ = &obs_->metrics.counter("origin.cache.expired");
  c_coalesced_ = &obs_->metrics.counter("origin.cache.coalesced");
  c_dup_fills_ = &obs_->metrics.counter("origin.cache.dup_fills");
  c_flushes_ = &obs_->metrics.counter("origin.cache.flushes");
  c_consistency_ = &obs_->metrics.counter("origin.cache.consistency_fail");
  c_retries_ = &obs_->metrics.counter("origin.retries");
  c_trips_ = &obs_->metrics.counter("origin.failover.trips");
  c_probes_ = &obs_->metrics.counter("origin.failover.probes");
  c_secondary_ = &obs_->metrics.counter("origin.failover.secondary");
  c_errors_ = &obs_->metrics.counter("origin.errors");
  obs_->metrics.gauge("origin.coalesce.enabled")
      .set(options_.coalesce ? 1 : 0);
  obs_->metrics.gauge("origin.breaker.threshold")
      .set(options_.breaker_threshold);
  g_max_consec_ = &obs_->metrics.gauge("origin.failover.max_consec");
  g_max_consec_->set(state_->max_consecutive_failures);
}

void OriginTier::attach(http::Proxy& proxy) { proxy_ = &proxy; }

bool OriginTier::primary_dark(Seconds when) const {
  for (const faults::DcBlackoutFault& window : dc_blackouts_) {
    if (window.covers(when)) return true;
  }
  return false;
}

double OriginTier::draw(std::uint64_t tag, std::uint64_t index) const {
  const std::uint64_t h =
      mix64(mix64(mix64(options_.seed + tag) + ordinal_) + index);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

Seconds OriginTier::packaging(const http::Response& response) const {
  if (http::Proxy::is_manifest_content(response.content_type)) {
    return kManifestPackaging;
  }
  const double mb = static_cast<double>(response.payload_size) / 1e6;
  return kSegmentPackagingBase + kSegmentPackagingPerMb * mb;
}

void OriginTier::apply_flushes(Seconds now) {
  for (const faults::CacheFlushFault& flush : flushes_) {
    if (flush.at > now) break;
    if (flush.at <= state_->last_flush) continue;
    state_->clear();
    state_->last_flush = flush.at;
    ++state_->totals.flushes;
    count(c_flushes_);
  }
}

void OriginTier::verify_consistency(const http::Request& request,
                                    const OriginState::Entry& entry,
                                    Seconds now) {
  // The invariant the chaos catalog checks: bytes served from the edge must
  // be what the origin would serve this requester right now. Titles are
  // immutable, so that holds exactly when the entry was filled for the same
  // identity; a mismatch is a cache bug (the classic one: a key that ignores
  // the title and serves another session's bytes).
  if (entry.filled_for(pending_key_)) return;
  ++state_->totals.consistency_failures;
  count(c_consistency_);
  instant("origin.cache_inconsistent", request, now, 0);
}

http::Response OriginTier::fetch_origin(const http::Request& request) const {
  return proxy_->origin().handle(request);
}

void OriginTier::fill_cache(const http::Response& response, Seconds now,
                            Seconds ready_at) {
  OriginState::Entry& entry = state_->fill(
      pending_key_, static_cast<std::size_t>(options_.cache_capacity));
  // Any assignment into a reused node's body keeps its old capacity (a
  // manifest's, under every segment that follows); a fresh copy swapped in
  // leaves with the old buffer and frees it.
  http::Response canonical = response;
  std::swap(entry.response, canonical);
  // Canonical: wire-fault fields stripped.
  entry.response.added_latency = 0;
  entry.response.reset_after = -1;
  entry.expires = now + options_.cache_ttl_s;
  entry.ready_at = ready_at;
}

void OriginTier::serve_secondary(const http::Request& request,
                                 http::Response& response,
                                 Seconds& origin_wait, Seconds now) {
  response = fetch_origin(request);
  origin_wait += packaging(response) + kSecondaryExtraLatency;
  ++state_->totals.secondary;
  count(c_secondary_);
  instant("origin.failover", request, now,
          packaging(response) + kSecondaryExtraLatency);
}

void OriginTier::count(obs::Counter* counter) {
  if (counter != nullptr) counter->add();
}

void OriginTier::instant(const char* name, const http::Request& request,
                         Seconds now, double wait_s) {
  if (obs::trace_on(obs_, obs::Category::kOrigin)) {
    obs_->trace.instant(now, obs::Category::kOrigin, name, obs_track_,
                        {obs::Field::t("url", request.url),
                         obs::Field::n("wait_s", wait_s)});
  }
}

std::optional<http::Response> OriginTier::on_request(
    const http::Request& request, Seconds now) {
  pending_hit_ = false;
  pending_key_ = OriginState::Key::make(scope_, request);
  apply_flushes(now);
  const auto it = state_->find(pending_key_);
  if (it == state_->lru.end()) return std::nullopt;  // miss

  OriginState::Entry& entry = *it;
  if (now >= entry.expires) {
    state_->erase(it);
    ++state_->totals.expired;
    count(c_expired_);
    return std::nullopt;  // stale: refill like any other miss
  }

  if (now >= entry.ready_at) {
    // Plain edge hit: short-circuits the origin *and* any later request
    // stage (injected origin errors never touch edge-served bytes).
    state_->touch(it);
    ++state_->totals.hits;
    count(c_hits_);
    verify_consistency(request, entry, now);
    http::Response response = entry.response;
    response.added_latency += kCacheHitLatency;
    pending_hit_ = true;
    return response;
  }

  // A fill for this key is still in flight (its bytes reach the edge at
  // ready_at).
  if (options_.coalesce) {
    state_->touch(it);
    ++state_->totals.coalesced;
    count(c_coalesced_);
    verify_consistency(request, entry, now);
    http::Response response = entry.response;
    response.added_latency += (entry.ready_at - now) + kCacheHitLatency;
    pending_hit_ = true;
    instant("origin.coalesced", request, now, entry.ready_at - now);
    return response;
  }

  // Coalescing disabled: the classic cache-miss storm. Every concurrent
  // requester refetches and repackages the same key.
  ++state_->totals.dup_fills;
  count(c_dup_fills_);
  return std::nullopt;
}

void OriginTier::on_response(const http::Request& request,
                             http::Response& response, Seconds now) {
  if (pending_hit_) {
    // Edge-served: the primary DC was never involved; wire faults layered
    // on top (injected latency/resets between edge and client) are not its
    // failures.
    pending_hit_ = false;
    ++ordinal_;
    return;
  }

  // A miss that went towards the primary DC. The response in hand is the
  // origin's answer after every fault stage ran — an injected error or
  // scheduled reset is indistinguishable from a sick primary, which is
  // exactly the point.
  ++state_->totals.misses;
  count(c_misses_);

  Seconds origin_wait = 0;
  bool served = false;  // response holds canonical bytes from some DC
  bool failed = is_failure(response) || primary_dark(now);

  if (breaker_enabled() && state_->breaker_open) {
    if (now >= state_->opened_at + options_.breaker_cooldown_s) {
      // Half-open: one probe decides. This request *was* the probe.
      ++state_->totals.probes;
      count(c_probes_);
      instant("origin.probe", request, now, 0);
      if (failed) {
        state_->opened_at = now;  // re-open for another cooldown
        serve_secondary(request, response, origin_wait, now);
        served = true;
        failed = false;
      } else {
        state_->breaker_open = false;
        state_->consecutive_failures = 0;
      }
    } else {
      serve_secondary(request, response, origin_wait, now);
      served = true;
      failed = false;
    }
  }

  if (!served && failed) {
    // Bounded retries against the primary, jittered exponential backoff.
    // Backoff is virtual time: a retry "lands" at now + accumulated backoff,
    // so it can ride out the tail of a short DC blackout. Injected
    // single-shot faults (errors, resets) are transient by model: the first
    // retry clears them unless the primary is actually dark.
    Seconds backoff_total = 0;
    for (int attempt = 1; attempt <= options_.retry_budget; ++attempt) {
      const Seconds backoff =
          options_.backoff_base_s * std::pow(2.0, attempt - 1) +
          kBackoffJitter *
              draw(kTagBackoff, static_cast<std::uint64_t>(attempt));
      backoff_total += backoff;
      ++state_->totals.retries;
      count(c_retries_);
      instant("origin.retry", request, now, backoff);
      if (!primary_dark(now + backoff_total)) {
        response = fetch_origin(request);
        origin_wait += backoff_total + packaging(response);
        state_->consecutive_failures = 0;
        served = true;
        failed = false;
        break;
      }
    }
    if (failed) {
      origin_wait += backoff_total;
      const int consecutive = ++state_->consecutive_failures;
      state_->max_consecutive_failures =
          std::max(state_->max_consecutive_failures, consecutive);
      if (g_max_consec_ != nullptr) {
        g_max_consec_->set(state_->max_consecutive_failures);
      }
      if (breaker_enabled() && consecutive >= options_.breaker_threshold) {
        state_->breaker_open = true;
        state_->opened_at = now;
        state_->consecutive_failures = 0;
        ++state_->totals.trips;
        count(c_trips_);
        instant("origin.failover", request, now, backoff_total);
        serve_secondary(request, response, origin_wait, now);
        served = true;
        failed = false;
      } else {
        // Budget exhausted below the trip threshold: the client sees the
        // failure (and its own retry machinery pushes the count upward).
        ++state_->totals.errors;
        count(c_errors_);
        if (!is_failure(response)) {
          response = http::make_error(503, "primary datacenter unavailable");
        }
      }
    }
  } else if (!served) {
    // Healthy miss straight from the primary.
    state_->consecutive_failures = 0;
    origin_wait += packaging(response);
    served = true;
  }

  if (served) {
    // Canonical copy into the edge cache; the fill completes (for
    // coalescing waiters) once the origin-side latency has elapsed.
    fill_cache(response, now, now + origin_wait);
    response.added_latency += origin_wait;
  }
  instant("origin.cache_miss", request, now, origin_wait);
  ++ordinal_;
}

}  // namespace vodx::origin
