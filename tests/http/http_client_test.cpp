#include "http/http_client.h"

#include <gtest/gtest.h>

#include "testing/fixtures.h"

namespace vodx::http {
namespace {

using vodx::testing::small_asset;

struct ClientHarness {
  explicit ClientHarness(int max_connections = 2, bool persistent = true,
                         Bps bandwidth = 8e6)
      : sim(0.01),
        link(sim, net::BandwidthTrace::constant(bandwidth, 600), 0.05),
        origin(small_asset(), {manifest::Protocol::kHls}),
        proxy(origin),
        client(sim, link, proxy, make_options(max_connections, persistent)) {}

  static HttpClient::Options make_options(int max_connections,
                                          bool persistent) {
    HttpClient::Options options;
    options.max_connections = max_connections;
    options.tcp.rtt = 0.05;
    options.tcp.persistent = persistent;
    return options;
  }

  net::Simulator sim;
  net::Link link;
  OriginServer origin;
  Proxy proxy;
  HttpClient client;
};

TEST(HttpClient, FetchDeliversResponse) {
  ClientHarness h;
  std::string body;
  h.client.fetch({Method::kGet, "/master.m3u8", {}},
                 [&](const Response& r) { body = r.body; });
  h.sim.run_until(2);
  EXPECT_NE(body.find("#EXTM3U"), std::string::npos);
}

TEST(HttpClient, SlotsAreLimited) {
  ClientHarness h(2);
  EXPECT_EQ(h.client.free_slots(), 2);
  h.client.fetch({Method::kGet, "/video/0/seg0.ts", {}}, {});
  h.client.fetch({Method::kGet, "/video/0/seg1.ts", {}}, {});
  EXPECT_EQ(h.client.free_slots(), 0);
  EXPECT_EQ(h.client.fetch({Method::kGet, "/video/0/seg2.ts", {}}, {}), -1);
  h.sim.run_until(5);
  EXPECT_EQ(h.client.free_slots(), 2);
}

TEST(HttpClient, TransferIdMatchesLogRecord) {
  ClientHarness h;
  int id = h.client.fetch({Method::kGet, "/video/1/seg0.ts", {}}, {});
  ASSERT_GE(id, 0);
  h.sim.run_until(5);
  const TransferRecord& record = h.proxy.log().record(id);
  EXPECT_EQ(record.url, "/video/1/seg0.ts");
  EXPECT_TRUE(record.finished());
  EXPECT_GT(record.bytes_received, 0);
}

TEST(HttpClient, PersistentConnectionIsReused) {
  ClientHarness h(1, /*persistent=*/true);
  h.client.fetch({Method::kGet, "/video/0/seg0.ts", {}},
                 [&](const Response&) {
                   h.client.fetch({Method::kGet, "/video/0/seg1.ts", {}}, {});
                 });
  h.sim.run_until(10);
  const auto& records = h.proxy.log().records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].connection, records[1].connection);
  EXPECT_EQ(records[0].connection_use, 0);
  EXPECT_EQ(records[1].connection_use, 1);
}

TEST(HttpClient, NonPersistentStartsFreshConnections) {
  ClientHarness h(1, /*persistent=*/false);
  h.client.fetch({Method::kGet, "/video/0/seg0.ts", {}},
                 [&](const Response&) {
                   h.client.fetch({Method::kGet, "/video/0/seg1.ts", {}}, {});
                 });
  h.sim.run_until(10);
  const auto& records = h.proxy.log().records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_NE(records[0].connection, records[1].connection);
  EXPECT_EQ(records[1].connection_use, 0);
}

TEST(HttpClient, AbortLogsPartialBytes) {
  ClientHarness h(1, true, 200e3);  // slow link so we can abort mid-flight
  int id = h.client.fetch({Method::kGet, "/video/2/seg0.ts", {}},
                          [](const Response&) { FAIL() << "must not finish"; });
  h.sim.run_until(2);
  h.client.abort(id);
  h.sim.run_until(5);
  const TransferRecord& record = h.proxy.log().record(id);
  EXPECT_TRUE(record.aborted);
  EXPECT_LT(record.bytes_received, record.payload_size);
}

TEST(HttpClient, ErrorResponsesStillDeliver) {
  ClientHarness h;
  int status = 0;
  h.client.fetch({Method::kGet, "/missing", {}},
                 [&](const Response& r) { status = r.status; });
  h.sim.run_until(2);
  EXPECT_EQ(status, 404);
}

TEST(HttpClient, HeadIsFastAndCarriesLength) {
  ClientHarness h(1, true, 500e3);
  Bytes length = 0;
  Seconds done_at = 0;
  h.client.fetch({Method::kHead, "/video/2/seg0.ts", {}},
                 [&](const Response& r) {
                   length = r.head_content_length;
                   done_at = h.sim.now();
                 });
  h.sim.run_until(5);
  EXPECT_GT(length, 100000);  // a real segment size
  EXPECT_LT(done_at, 0.5);    // but only headers crossed the wire
}

}  // namespace
}  // namespace vodx::http
