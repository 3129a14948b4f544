// The invariant catalog: a clean session passes everything, fabricated
// corruption in each evidence stream is caught, and summaries render in
// stable catalog order.
#include "chaos/invariants.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "chaos/chaos.h"
#include "http/proxy.h"
#include "origin/origin.h"
#include "testing/fixtures.h"

namespace vodx::chaos {
namespace {

TEST(Invariants, CatalogNamesAreStable) {
  const std::vector<InvariantInfo>& catalog = invariant_catalog();
  const char* expected[] = {
      "time.monotone",     "span.balanced",        "buffer.bounds",
      "transfer.order",    "bytes.conservation",   "retry.bounds",
      "qoe.finite",        "stall.well_formed",    "session.completes",
      "cache.consistency", "coalesce.no_dup_fetch", "failover.bounded",
  };
  ASSERT_EQ(catalog.size(), std::size(expected));
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    EXPECT_STREQ(catalog[i].name, expected[i]);
    EXPECT_GT(std::strlen(catalog[i].description), 0u);
  }
}

TEST(Invariants, CleanSessionPassesTheWholeCatalog) {
  const CheckedRun run =
      run_checked(make_session("H1", 7, 30, /*chaos_seed=*/1, {}));
  EXPECT_FALSE(run.watchdog);
  EXPECT_TRUE(run.report.ok()) << run.report.summary();
  EXPECT_TRUE(run.ok());
}

TEST(Invariants, SummaryDedupesInCatalogOrderAndKeepsForeignNames) {
  InvariantReport report;
  report.violations.push_back({"qoe.finite", "a", 1});
  report.violations.push_back({"time.monotone", "b", 2});
  report.violations.push_back({"qoe.finite", "c", 3});
  report.violations.push_back({"hook.custom", "d", 4});
  EXPECT_EQ(report.summary(), "time.monotone, qoe.finite, hook.custom");
}

/// Fixture: a session config plus empty-but-valid evidence that passes the
/// catalog, which each test then corrupts in exactly one way.
struct Fabricated {
  Fabricated() : config(make_session("H1", 7, 30, 1, {})) {
    result.session_end = 30;
  }

  core::SessionConfig config;
  core::SessionResult result;
  obs::Observer observer;

  InvariantReport check() {
    return check_invariants(config, result, observer);
  }
};

TEST(Invariants, EmptyEvidencePasses) {
  Fabricated f;
  EXPECT_TRUE(f.check().ok()) << f.check().summary();
}

TEST(Invariants, NonFiniteQoeComponentIsFlagged) {
  Fabricated f;
  f.result.qoe.startup_delay = std::nan("");
  EXPECT_EQ(f.check().summary(), "qoe.finite");
}

TEST(Invariants, SessionEndPastDurationIsFlagged) {
  Fabricated f;
  f.result.session_end = 31;  // duration 30, tick 0.01
  EXPECT_EQ(f.check().summary(), "qoe.finite");
}

TEST(Invariants, OverlappingStallsAreFlagged) {
  Fabricated f;
  f.result.events.stalls.push_back({1, 5});
  f.result.events.stalls.push_back({3, 6});  // starts inside the previous
  EXPECT_EQ(f.check().summary(), "stall.well_formed");
}

TEST(Invariants, OpenEndedStallMustBeLast) {
  Fabricated f;
  f.result.events.stalls.push_back({1, -1});
  f.result.events.stalls.push_back({5, 6});
  EXPECT_EQ(f.check().summary(), "stall.well_formed");
}

TEST(Invariants, DownloadCompletingBeforeItsRequestIsFlagged) {
  Fabricated f;
  core::SegmentDownload d;
  d.requested_at = 10;
  d.completed_at = 8;
  d.bytes = 1000;
  f.result.traffic.downloads.push_back(d);
  EXPECT_EQ(f.check().summary(), "transfer.order");
}

TEST(Invariants, NegativeDownloadBytesAreFlagged) {
  Fabricated f;
  core::SegmentDownload d;
  d.requested_at = 10;
  d.completed_at = 12;
  d.bytes = -5;
  f.result.traffic.downloads.push_back(d);
  EXPECT_EQ(f.check().summary(), "transfer.order");
}

TEST(Invariants, MediaBytesExceedingWireBytesAreFlagged) {
  Fabricated f;
  f.result.ground_truth.media_bytes = 2000;
  f.result.ground_truth.total_bytes = 1000;
  EXPECT_EQ(f.check().summary(), "bytes.conservation");
}

TEST(Invariants, FetchFailuresBeyondWireAttemptsAreFlagged) {
  Fabricated f;
  f.observer.metrics.counter("http.requests").add(2);
  f.observer.metrics.counter("player.fetch_failures").add(5);
  EXPECT_EQ(f.check().summary(), "retry.bounds");
}

TEST(Invariants, TamperedEdgeCacheEntryFiresCacheConsistency) {
  // Two titles share one edge, as a population tower's sessions do: each
  // fills and hits its own entry, and the catalog passes. Then the first
  // title's entry records the second as its filler, and its next hit fires.
  Fabricated f;
  const http::OriginServer server(testing::small_asset(),
                                  {manifest::Protocol::kHls});
  auto state = std::make_shared<origin::OriginState>();
  http::Proxy first(server);
  http::Proxy second(server);
  for (auto [proxy, scope] : {std::pair{&first, "H1#7"},
                              std::pair{&second, "H1#8"}}) {
    auto tier = std::make_shared<origin::OriginTier>(
        origin::hardened_origin(), state, scope);
    tier->set_observer(&f.observer);
    proxy->use(tier);
  }
  const http::Request manifest{http::Method::kGet, "/master.m3u8", {}};
  first.resolve(manifest, 1);
  second.resolve(manifest, 2);
  first.resolve(manifest, 3);
  second.resolve(manifest, 4);
  EXPECT_EQ(state->totals.hits, 2);
  EXPECT_TRUE(f.check().ok()) << f.check().summary();

  ASSERT_EQ(state->lru.size(), 2u);
  state->lru.front().filler = state->intern("H1#8");
  first.resolve(manifest, 5);
  EXPECT_EQ(f.check().summary(), "cache.consistency");
}

TEST(Invariants, TraceEventMovingBackwardsIsFlagged) {
  Fabricated f;
  f.observer.trace.instant(5, obs::Category::kSession, "a", 0, {});
  f.observer.trace.instant(2, obs::Category::kSession, "b", 0, {});
  const InvariantReport report = f.check();
  EXPECT_NE(report.summary().find("time.monotone"), std::string::npos)
      << report.summary();
}

}  // namespace
}  // namespace vodx::chaos
