#include "http/proxy.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"
#include "testing/interceptors.h"

namespace vodx::http {
namespace {

using vodx::testing::small_asset;

TEST(Proxy, PassesThroughByDefault) {
  OriginServer origin(small_asset(), {manifest::Protocol::kHls});
  Proxy proxy(origin);
  Response r = proxy.resolve({Method::kGet, "/master.m3u8", {}}, 0);
  EXPECT_TRUE(r.ok());
  EXPECT_NE(r.body.find("#EXTM3U"), std::string::npos);
}

TEST(Proxy, ManifestTransformRewritesBodyAndSize) {
  OriginServer origin(small_asset(), {manifest::Protocol::kHls});
  Proxy proxy(origin);
  proxy.use(transform_manifest(
      [](const std::string&, std::string) { return std::string("#X"); }));
  Response r = proxy.resolve({Method::kGet, "/master.m3u8", {}}, 0);
  EXPECT_EQ(r.body, "#X");
  EXPECT_EQ(r.payload_size, 2);
}

TEST(Proxy, TransformDoesNotTouchMedia) {
  OriginServer origin(small_asset(), {manifest::Protocol::kHls});
  Proxy proxy(origin);
  proxy.use(transform_manifest(
      [](const std::string&, std::string) { return std::string(); }));
  Response r = proxy.resolve({Method::kGet, "/video/0/seg0.ts", {}}, 0);
  EXPECT_TRUE(r.ok());
  EXPECT_GT(r.payload_size, 0);
}

TEST(Proxy, RejectInterceptorAnswers403) {
  OriginServer origin(small_asset(), {manifest::Protocol::kHls});
  Proxy proxy(origin);
  proxy.use(testing::reject_if([](const Request& request) {
    return request.url.find("seg") != std::string::npos;
  }));
  EXPECT_EQ(proxy.resolve({Method::kGet, "/video/0/seg0.ts", {}}, 0).status,
            403);
  EXPECT_TRUE(proxy.resolve({Method::kGet, "/master.m3u8", {}}, 0).ok());
}

TEST(TrafficLogTest, RecordsLifecycle) {
  TrafficLog log;
  Response response = make_ok("text/plain", "hello");
  int id = log.open(Method::kGet, "/x", {}, 1.5, response, "conn0.1", 0);
  EXPECT_FALSE(log.record(id).finished());
  log.complete(id, 2.5, 5);
  const TransferRecord& r = log.record(id);
  EXPECT_TRUE(r.finished());
  EXPECT_EQ(r.bytes_received, 5);
  EXPECT_EQ(r.body_copy, "hello");
  EXPECT_EQ(r.connection, "conn0.1");
  EXPECT_DOUBLE_EQ(r.requested_at, 1.5);
  EXPECT_DOUBLE_EQ(r.completed_at, 2.5);
}

TEST(TrafficLogTest, AbortKeepsPartialBytes) {
  TrafficLog log;
  int id = log.open(Method::kGet, "/x", {}, 0, make_media("video/mp4", 1000),
                    "c", 0);
  log.abort(id, 400);
  EXPECT_TRUE(log.record(id).aborted);
  EXPECT_EQ(log.record(id).bytes_received, 400);
  EXPECT_EQ(log.total_bytes(), 400);
}

TEST(TrafficLogTest, TotalBytesSums) {
  TrafficLog log;
  int a = log.open(Method::kGet, "/a", {}, 0, make_media("v", 100), "c", 0);
  int b = log.open(Method::kGet, "/b", {}, 0, make_media("v", 200), "c", 1);
  log.complete(a, 1, 100);
  log.complete(b, 1, 200);
  EXPECT_EQ(log.total_bytes(), 300);
}

TEST(TrafficLogDeathTest, DoubleCloseAborts) {
  TrafficLog log;
  int id = log.open(Method::kGet, "/a", {}, 0, make_media("v", 10), "c", 0);
  log.complete(id, 1, 10);
  EXPECT_DEATH(log.complete(id, 2, 10), "closed");
}

}  // namespace
}  // namespace vodx::http
