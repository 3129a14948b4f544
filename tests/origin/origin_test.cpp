// vodx::origin unit tests: the edge cache (hit/miss/TTL/LRU/flush),
// request coalescing vs the cache-miss storm, bounded retries with seeded
// jitter, the circuit breaker's trip / half-open / recovery walk, and the
// identity check behind cache.consistency. Everything runs against a real Proxy + OriginServer so
// the interceptor-chain ordering contract (origin first, injectors after)
// is exercised, not mocked.
#include "origin/origin.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "http/proxy.h"
#include "testing/fixtures.h"
#include "testing/interceptors.h"

namespace vodx::origin {
namespace {

using vodx::testing::small_asset;

constexpr const char* kManifest = "/master.m3u8";

struct World {
  explicit World(OriginOptions options,
                 std::shared_ptr<OriginState> state = nullptr,
                 std::string scope = "test|42")
      : server(small_asset(), {manifest::Protocol::kHls}),
        proxy(server),
        tier(std::make_shared<OriginTier>(options, std::move(state),
                                          std::move(scope))) {
    proxy.use(tier);
  }

  http::Response get(const std::string& url, Seconds now) {
    return proxy.resolve({http::Method::kGet, url, {}}, now);
  }
  http::Response resolve(const http::Request& request, Seconds now) {
    return proxy.resolve(request, now);
  }

  const OriginState::Totals& totals() const { return tier->state().totals; }

  http::OriginServer server;
  http::Proxy proxy;
  std::shared_ptr<OriginTier> tier;
};

TEST(OriginMode, ParseAndToStringRoundTrip) {
  EXPECT_EQ(parse_mode("none"), Mode::kNone);
  EXPECT_EQ(parse_mode("naive"), Mode::kNaive);
  EXPECT_EQ(parse_mode("hardened"), Mode::kHardened);
  EXPECT_STREQ(to_string(Mode::kNaive), "naive");
  EXPECT_STREQ(to_string(Mode::kHardened), "hardened");
  EXPECT_THROW(parse_mode("cdn"), ConfigError);
  EXPECT_THROW(parse_mode(""), ConfigError);
}

TEST(OriginMode, PresetsMatchTheirDocumentedShape) {
  const OriginOptions naive = naive_origin();
  EXPECT_EQ(naive.mode, Mode::kNaive);
  EXPECT_FALSE(naive.coalesce);
  EXPECT_EQ(naive.retry_budget, 0);
  EXPECT_EQ(naive.breaker_threshold, 0);

  const OriginOptions hard = hardened_origin();
  EXPECT_EQ(hard.mode, Mode::kHardened);
  EXPECT_TRUE(hard.coalesce);
  EXPECT_GT(hard.retry_budget, 0);
  EXPECT_GT(hard.breaker_threshold, 0);

  EXPECT_EQ(preset(Mode::kNone).mode, Mode::kNone);
  EXPECT_EQ(preset(Mode::kNaive).mode, Mode::kNaive);
  EXPECT_EQ(preset(Mode::kHardened).mode, Mode::kHardened);
}

TEST(OriginOptionsValidate, RejectsDegenerateKnobs) {
  OriginOptions options = hardened_origin();
  options.cache_capacity = 0;
  EXPECT_THROW(options.validate(), ConfigError);

  options = hardened_origin();
  options.cache_ttl_s = 0;
  EXPECT_THROW(options.validate(), ConfigError);

  options = hardened_origin();
  options.retry_budget = -1;
  EXPECT_THROW(options.validate(), ConfigError);

  options = hardened_origin();
  options.retry_budget = 2;
  options.backoff_base_s = 0;
  EXPECT_THROW(options.validate(), ConfigError);

  options = hardened_origin();
  options.breaker_threshold = 3;
  options.breaker_cooldown_s = 0;
  EXPECT_THROW(options.validate(), ConfigError);

  EXPECT_NO_THROW(hardened_origin().validate());
  EXPECT_NO_THROW(naive_origin().validate());
}

TEST(OriginCache, MissPaysPackagingThenHitPaysEdgeLatency) {
  World world(hardened_origin());
  const http::Response miss = world.get(kManifest, 0);
  ASSERT_TRUE(miss.ok());
  // A manifest miss pays the manifest repackaging cost.
  EXPECT_DOUBLE_EQ(miss.added_latency, kManifestPackaging);
  EXPECT_EQ(world.totals().misses, 1);
  EXPECT_EQ(world.totals().hits, 0);

  const http::Response hit = world.get(kManifest, 1.0);
  ASSERT_TRUE(hit.ok());
  EXPECT_DOUBLE_EQ(hit.added_latency, kCacheHitLatency);
  EXPECT_EQ(world.totals().misses, 1);
  EXPECT_EQ(world.totals().hits, 1);
  EXPECT_EQ(hit.body, miss.body);
}

TEST(OriginCache, SegmentPackagingScalesWithPayload) {
  World world(hardened_origin());
  const http::Response segment = world.get("/video/2/seg0.ts", 0);
  ASSERT_TRUE(segment.ok());
  const double mb = static_cast<double>(segment.payload_size) / 1e6;
  EXPECT_DOUBLE_EQ(segment.added_latency,
                   kSegmentPackagingBase + kSegmentPackagingPerMb * mb);
}

TEST(OriginCache, TtlExpiryRefillsLikeAMiss) {
  OriginOptions options = hardened_origin();
  options.cache_ttl_s = 5;
  World world(options);
  world.get(kManifest, 0);
  const http::Response stale = world.get(kManifest, 6.0);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(world.totals().expired, 1);
  EXPECT_EQ(world.totals().misses, 2);
  // The refill is live again.
  world.get(kManifest, 7.0);
  EXPECT_EQ(world.totals().hits, 1);
}

TEST(OriginCache, LruEvictsTheColdestEntry) {
  OriginOptions options = hardened_origin();
  options.cache_capacity = 2;
  World world(options);
  world.get("/video/0/seg0.ts", 1);  // A: miss, fill
  world.get("/video/0/seg1.ts", 2);  // B: miss, fill
  world.get("/video/0/seg0.ts", 3);  // A: hit — B is now coldest
  world.get("/video/0/seg2.ts", 4);  // C: miss — evicts B
  EXPECT_EQ(world.totals().hits, 1);
  world.get("/video/0/seg1.ts", 5);  // B again: must be a miss (evicts A)
  EXPECT_EQ(world.totals().misses, 4);
  world.get("/video/0/seg2.ts", 6);  // C survived both evictions
  EXPECT_EQ(world.totals().hits, 2);
}

TEST(OriginCache, ScheduledFlushWipesTheEdge) {
  World world(hardened_origin());
  world.tier->set_fault_schedule({faults::CacheFlushFault{5.0}}, {});
  world.get(kManifest, 0);
  world.get(kManifest, 1);
  EXPECT_EQ(world.totals().hits, 1);
  world.get(kManifest, 6.0);  // the 5 s flush lands before this request
  EXPECT_EQ(world.totals().flushes, 1);
  EXPECT_EQ(world.totals().misses, 2);
}

TEST(OriginCache, CoalescingServesWaitersFromTheInFlightFill) {
  World world(hardened_origin());
  const http::Response first = world.get(kManifest, 10.0);
  // Second request lands before the fill's origin latency has elapsed
  // (ready_at = 10 + manifest packaging): it joins the in-flight fill and
  // pays the residual wait, not a second origin round trip.
  const http::Response waiter = world.get(kManifest, 10.0);
  ASSERT_TRUE(waiter.ok());
  EXPECT_EQ(world.totals().coalesced, 1);
  EXPECT_EQ(world.totals().dup_fills, 0);
  EXPECT_EQ(world.totals().misses, 1);
  EXPECT_NEAR(waiter.added_latency,
              first.added_latency + kCacheHitLatency, 1e-9);
}

TEST(OriginCache, DisabledCoalescingDuplicatesTheFill) {
  // The cache-miss storm: with coalescing off every concurrent requester
  // refetches and repackages the same key.
  World world(naive_origin());
  world.get(kManifest, 10.0);
  world.get(kManifest, 10.0);
  EXPECT_EQ(world.totals().dup_fills, 1);
  EXPECT_EQ(world.totals().coalesced, 0);
  EXPECT_EQ(world.totals().misses, 2);
}

TEST(OriginCache, ScopeNamespacesTitles) {
  // Two sessions share cached bytes only when they stream the same title:
  // different scopes on the same shared state never cross-serve.
  auto state = std::make_shared<OriginState>();
  World first(hardened_origin(), state, "H1|7");
  World second(hardened_origin(), state, "H1|8");
  first.get(kManifest, 0);
  second.get(kManifest, 1);
  EXPECT_EQ(state->totals.misses, 2);
  EXPECT_EQ(state->totals.hits, 0);

  World same_title(hardened_origin(), state, "H1|7");
  same_title.get(kManifest, 2);
  EXPECT_EQ(state->totals.hits, 1);
  EXPECT_EQ(state->totals.consistency_failures, 0);
}

TEST(OriginCache, RequestsDifferingInOneIdentityFieldNeverShareAnEntry) {
  // Method, byte range (none vs the whole file as [0, n] included) and
  // title each key their own entry: every variant misses once, then hits
  // its own bytes.
  auto state = std::make_shared<OriginState>();
  World world(hardened_origin(), state);
  World other_title(hardened_origin(), state, "test|43");
  const std::string segment = "/video/0/seg0.ts";
  const Bytes size = world.server.handle({http::Method::kGet, segment, {}})
                         .payload_size;
  ASSERT_GT(size, 200);
  const manifest::ByteRange whole{0, size - 1};
  const manifest::ByteRange prefix{0, 99};
  const std::vector<std::pair<World*, http::Request>> variants = {
      {&world, {http::Method::kGet, segment, {}}},
      {&world, {http::Method::kHead, segment, {}}},
      {&world, {http::Method::kGet, segment, whole}},
      {&world, {http::Method::kHead, segment, whole}},
      {&world, {http::Method::kGet, segment, prefix}},
      {&other_title, {http::Method::kGet, segment, {}}},
      {&other_title, {http::Method::kHead, segment, whole}},
  };
  std::vector<http::Response> filled;
  for (const auto& [tier, request] : variants) {
    filled.push_back(tier->resolve(request, 1));
    ASSERT_TRUE(filled.back().ok());
  }
  EXPECT_EQ(state->totals.misses, static_cast<long long>(variants.size()));
  EXPECT_EQ(state->lru.size(), variants.size());

  for (std::size_t i = 0; i < variants.size(); ++i) {
    const http::Response hit = variants[i].first->resolve(variants[i].second,
                                                          2);
    EXPECT_EQ(hit.status, filled[i].status) << i;
    EXPECT_EQ(hit.payload_size, filled[i].payload_size) << i;
    EXPECT_EQ(hit.head_content_length, filled[i].head_content_length) << i;
  }
  EXPECT_EQ(state->totals.hits, static_cast<long long>(variants.size()));
  EXPECT_EQ(state->totals.misses, static_cast<long long>(variants.size()));
  EXPECT_EQ(state->totals.consistency_failures, 0);
}

TEST(OriginConsistency, TamperedFillerIdentityIsDetected) {
  auto state = std::make_shared<OriginState>();
  World world(hardened_origin(), state);
  world.get(kManifest, 0);
  world.get("/video/0/seg0.ts", 1);

  // Record another title as the manifest entry's filler: its next hit must
  // flag the inconsistency (the cache.consistency invariant chaos checks),
  // and the untouched segment entry must not.
  ASSERT_EQ(state->lru.size(), 2u);
  ASSERT_EQ(state->lru.front().key.url, kManifest);
  state->lru.front().filler = state->intern("test|43");
  world.get(kManifest, 2);
  world.get("/video/0/seg0.ts", 3);
  EXPECT_EQ(state->totals.hits, 2);
  EXPECT_EQ(state->totals.consistency_failures, 1);
}

TEST(OriginFailover, RetryClearsATransientInjectedError) {
  World world(hardened_origin());
  int injected = 0;
  // Registered after the tier: its response stage runs BEFORE the tier's
  // (reverse registration order), exactly where faults::FaultInjector sits.
  world.proxy.use(testing::tap_response(
      [&injected](const http::Request&, http::Response& response, Seconds) {
        if (injected++ == 0) response = http::make_error(503, "injected");
      }));

  const http::Response response = world.get(kManifest, 0);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(world.totals().retries, 1);
  EXPECT_EQ(world.totals().errors, 0);
  // The client paid the first backoff (base + jitter in [0, jitter)) plus
  // the repackaging on the retried fetch.
  const OriginOptions& o = world.tier->options();
  EXPECT_GE(response.added_latency, o.backoff_base_s + kManifestPackaging);
  EXPECT_LT(response.added_latency,
            o.backoff_base_s + kBackoffJitter + kManifestPackaging);
}

TEST(OriginFailover, NaiveOriginPropagatesFailuresAndCachesNothing) {
  World world(naive_origin());
  world.proxy.use(testing::tap_response(
      [](const http::Request&, http::Response& response, Seconds) {
        response = http::make_error(503, "origin overloaded");
      }));
  EXPECT_EQ(world.get(kManifest, 0).status, 503);
  EXPECT_EQ(world.get(kManifest, 1).status, 503);
  EXPECT_EQ(world.totals().errors, 2);
  EXPECT_EQ(world.totals().retries, 0);
  EXPECT_EQ(world.totals().misses, 2);  // a failure never fills the edge
  EXPECT_EQ(world.totals().hits, 0);
}

TEST(OriginFailover, BreakerTripsToSecondaryProbesAndRecovers) {
  World world(hardened_origin());
  // Primary dark over [10, 40): inside the window every retried attempt
  // still lands in the blackout (max total backoff ~1.25 s).
  world.tier->set_fault_schedule({}, {faults::DcBlackoutFault{10, 30}});

  // Two fresh keys fail through the full retry budget and propagate.
  EXPECT_FALSE(world.get("/video/0/seg0.ts", 11).ok());
  EXPECT_FALSE(world.get("/video/0/seg1.ts", 12).ok());
  EXPECT_EQ(world.totals().errors, 2);
  EXPECT_EQ(world.totals().retries,
            2 * world.tier->options().retry_budget);
  EXPECT_FALSE(world.tier->state().breaker_open);

  // Third consecutive failure reaches the threshold: trip, serve secondary.
  EXPECT_TRUE(world.get("/video/0/seg2.ts", 13).ok());
  EXPECT_EQ(world.totals().trips, 1);
  EXPECT_EQ(world.totals().secondary, 1);
  EXPECT_TRUE(world.tier->state().breaker_open);

  // Open breaker, cooldown not elapsed: straight to the secondary, no
  // retries burned.
  const long long retries_before = world.totals().retries;
  EXPECT_TRUE(world.get("/video/0/seg3.ts", 14).ok());
  EXPECT_EQ(world.totals().secondary, 2);
  EXPECT_EQ(world.totals().retries, retries_before);

  // Half-open probe while still dark: re-opens, the probe's requester is
  // served by the secondary.
  EXPECT_TRUE(world.get("/video/0/seg4.ts", 29).ok());
  EXPECT_EQ(world.totals().probes, 1);
  EXPECT_EQ(world.totals().secondary, 3);
  EXPECT_TRUE(world.tier->state().breaker_open);

  // Blackout over, cooldown elapsed: the probe succeeds and the breaker
  // closes — this request is a plain healthy miss off the primary.
  const http::Response recovered = world.get("/video/0/seg5.ts", 45);
  EXPECT_TRUE(recovered.ok());
  EXPECT_EQ(world.totals().probes, 2);
  EXPECT_EQ(world.totals().secondary, 3);
  EXPECT_FALSE(world.tier->state().breaker_open);
  EXPECT_EQ(world.tier->state().consecutive_failures, 0);
}

TEST(OriginFailover, SecondaryExtraLatencyIsCharged) {
  OriginOptions options = hardened_origin();
  options.breaker_threshold = 1;
  options.retry_budget = 0;
  World world(options);
  world.tier->set_fault_schedule({}, {faults::DcBlackoutFault{0, 100}});
  const http::Response response = world.get(kManifest, 5);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(world.totals().trips, 1);
  EXPECT_DOUBLE_EQ(response.added_latency,
                   kManifestPackaging + kSecondaryExtraLatency);
}

TEST(OriginFailover, RetryJitterIsAPureFunctionOfTheSeed) {
  auto run = [](std::uint64_t seed) {
    OriginOptions options = hardened_origin();
    options.seed = seed;
    World world(options);
    int injected = 0;
    world.proxy.use(testing::tap_response(
        [&injected](const http::Request&, http::Response& response, Seconds) {
          if (injected++ == 0) response = http::make_error(503, "flaky");
        }));
    return world.get(kManifest, 0).added_latency;
  };
  EXPECT_DOUBLE_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(OriginObs, CountersMirrorTheStateTotals) {
  obs::Observer observer;
  OriginOptions options = hardened_origin();
  options.cache_ttl_s = 5;
  World world(options);
  world.tier->set_observer(&observer);
  world.get(kManifest, 0);   // miss
  world.get(kManifest, 1);   // hit
  world.get(kManifest, 7);   // expired -> miss
  EXPECT_EQ(observer.metrics.counter("origin.cache.hits").value(),
            world.totals().hits);
  EXPECT_EQ(observer.metrics.counter("origin.cache.misses").value(),
            world.totals().misses);
  EXPECT_EQ(observer.metrics.counter("origin.cache.expired").value(),
            world.totals().expired);
  EXPECT_EQ(observer.metrics.gauge("origin.coalesce.enabled").value(), 1);
}

// A session's manifest probe rewrites the body on the client side of the
// tier: the edge stores, and retries and failover serve, the origin's bytes,
// and every response the probed session gets carries the rewrite once.

constexpr const char* kProbeLine = "#probe\n";

/// Appends kProbeLine to every manifest body it sees (the Fig. 12 modifier's
/// smallest form).
http::InterceptorPtr probe() {
  return http::transform_manifest(
      [](const std::string&, std::string body) { return body + kProbeLine; });
}

/// Occurrences of kProbeLine in `body`.
int probe_lines(const std::string& body) {
  int count = 0;
  for (std::size_t at = body.find(kProbeLine); at != std::string::npos;
       at = body.find(kProbeLine, at + 1)) {
    ++count;
  }
  return count;
}

/// The manifest exactly as the origin serves it, with the probe applied once.
std::string probed_manifest(const World& world) {
  return world.server.handle({http::Method::kGet, kManifest, {}}).body +
         kProbeLine;
}

TEST(OriginManifestProbe, MissAndHitCarryTheRewriteOnce) {
  World world(hardened_origin());
  world.proxy.use(probe());
  const http::Response miss = world.get(kManifest, 0);
  const http::Response hit = world.get(kManifest, 1);
  ASSERT_EQ(world.totals().hits, 1);
  EXPECT_EQ(miss.body, probed_manifest(world));
  EXPECT_EQ(hit.body, miss.body);
  EXPECT_EQ(probe_lines(hit.body), 1);
  EXPECT_EQ(hit.payload_size, static_cast<Bytes>(hit.body.size()));
}

TEST(OriginManifestProbe, RewriteStaysWithTheProbedSession) {
  // Two sessions of one title share the edge; only the first probes. Its
  // miss fills the edge, the second session's hit must get the origin's
  // bytes, and the first session's own hit the rewrite once.
  auto state = std::make_shared<OriginState>();
  World probed(hardened_origin(), state);
  World plain(hardened_origin(), state);
  probed.proxy.use(probe());
  const std::string origin_body =
      plain.server.handle({http::Method::kGet, kManifest, {}}).body;
  probed.get(kManifest, 0);
  const http::Response neighbour = plain.get(kManifest, 1);
  const http::Response own = probed.get(kManifest, 2);
  ASSERT_EQ(state->totals.hits, 2);
  EXPECT_EQ(neighbour.body, origin_body);
  EXPECT_EQ(own.body, probed_manifest(probed));
}

TEST(OriginManifestProbe, RetriedManifestKeepsTheRewrite) {
  // The primary is dark for 0.1 s; the first backoff (at least 0.25 s)
  // lands after it, so the retry serves the manifest.
  World world(hardened_origin());
  world.proxy.use(probe());
  world.tier->set_fault_schedule({}, {faults::DcBlackoutFault{0, 0.1}});
  const http::Response response = world.get(kManifest, 0);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(world.totals().retries, 1);
  EXPECT_EQ(response.body, probed_manifest(world));
}

TEST(OriginManifestProbe, FailedOverManifestKeepsTheRewrite) {
  OriginOptions options = hardened_origin();
  options.breaker_threshold = 1;
  options.retry_budget = 0;
  World world(options);
  world.proxy.use(probe());
  world.tier->set_fault_schedule({}, {faults::DcBlackoutFault{0, 100}});
  const http::Response response = world.get(kManifest, 5);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(world.totals().secondary, 1);
  EXPECT_EQ(response.body, probed_manifest(world));
}

TEST(OriginManifestProbe, TamperedEntryStillFailsTheConsistencyCheck) {
  // A probed session's hits are consistent and rewritten once; recording
  // another title as the entry's filler still flags the next hit.
  auto state = std::make_shared<OriginState>();
  World world(hardened_origin(), state);
  world.proxy.use(probe());
  world.get(kManifest, 0);
  const http::Response clean = world.get(kManifest, 1);
  EXPECT_EQ(state->totals.consistency_failures, 0);
  EXPECT_EQ(clean.body, probed_manifest(world));

  ASSERT_EQ(state->lru.size(), 1u);
  state->lru.front().filler = state->intern("test|43");
  const http::Response tampered = world.get(kManifest, 2);
  EXPECT_EQ(state->totals.consistency_failures, 1);
  EXPECT_EQ(tampered.body, probed_manifest(world));
}

TEST(OriginTotals, MergeFromAddsFieldwise) {
  OriginState::Totals a;
  a.hits = 1;
  a.misses = 2;
  a.retries = 3;
  OriginState::Totals b;
  b.hits = 10;
  b.misses = 20;
  b.errors = 5;
  a.merge_from(b);
  EXPECT_EQ(a.hits, 11);
  EXPECT_EQ(a.misses, 22);
  EXPECT_EQ(a.retries, 3);
  EXPECT_EQ(a.errors, 5);
}

}  // namespace
}  // namespace vodx::origin
