#include "http/interceptor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "http/proxy.h"
#include "testing/fixtures.h"
#include "testing/interceptors.h"

namespace vodx::http {
namespace {

using vodx::testing::small_asset;

// Records which stage hooks ran, in order, into a shared journal.
class Recorder : public Interceptor {
 public:
  Recorder(std::string name, std::vector<std::string>& journal)
      : name_(std::move(name)), journal_(journal) {}

  void attach(Proxy& proxy) override {
    (void)proxy;
    journal_.push_back(name_ + ".attach");
  }
  std::optional<Response> on_request(const Request&, Seconds) override {
    journal_.push_back(name_ + ".request");
    return std::nullopt;
  }
  std::string on_manifest(const std::string&, std::string body) override {
    journal_.push_back(name_ + ".manifest");
    return body + "#" + name_;
  }
  void on_response(const Request&, Response&, Seconds) override {
    journal_.push_back(name_ + ".response");
  }

 private:
  std::string name_;
  std::vector<std::string>& journal_;
};

TEST(Interceptor, AttachFiresOnceAtUse) {
  OriginServer origin(small_asset(), {manifest::Protocol::kHls});
  Proxy proxy(origin);
  std::vector<std::string> journal;
  proxy.use(std::make_shared<Recorder>("a", journal));
  EXPECT_EQ(journal, std::vector<std::string>{"a.attach"});
}

TEST(Interceptor, RequestOrderedManifestOrderedResponseReversed) {
  OriginServer origin(small_asset(), {manifest::Protocol::kHls});
  Proxy proxy(origin);
  std::vector<std::string> journal;
  proxy.use(std::make_shared<Recorder>("a", journal));
  proxy.use(std::make_shared<Recorder>("b", journal));
  journal.clear();

  Response r = proxy.resolve({Method::kGet, "/master.m3u8", {}}, 0);
  EXPECT_TRUE(r.ok());
  // The manifest stage runs last, after every response stage.
  const std::vector<std::string> want = {"a.request", "b.request",
                                         "b.response", "a.response",
                                         "a.manifest", "b.manifest"};
  EXPECT_EQ(journal, want);
  // Both manifest rewrites applied, in registration order.
  EXPECT_NE(r.body.find("#a#b"), std::string::npos);
  EXPECT_EQ(r.payload_size, static_cast<Bytes>(r.body.size()));
}

TEST(Interceptor, FirstInjectedResponseShortCircuits) {
  OriginServer origin(small_asset(), {manifest::Protocol::kHls});
  Proxy proxy(origin);
  std::vector<std::string> journal;
  proxy.use(std::make_shared<Recorder>("a", journal));
  proxy.use(testing::reject_if([](const Request&) { return true; }));
  proxy.use(std::make_shared<Recorder>("c", journal));
  journal.clear();

  Response r = proxy.resolve({Method::kGet, "/master.m3u8", {}}, 0);
  EXPECT_EQ(r.status, 403);
  // a ran, the rejection short-circuited c's request stage — but every
  // interceptor's response stage still sees the injected response.
  const std::vector<std::string> want = {"a.request", "c.response",
                                         "a.response"};
  EXPECT_EQ(journal, want);
}

TEST(Interceptor, ManifestStageSkipsMediaAndErrors) {
  OriginServer origin(small_asset(), {manifest::Protocol::kHls});
  Proxy proxy(origin);
  std::vector<std::string> journal;
  proxy.use(std::make_shared<Recorder>("a", journal));

  journal.clear();
  proxy.resolve({Method::kGet, "/video/0/seg0.ts", {}}, 0);
  EXPECT_EQ(journal, (std::vector<std::string>{"a.request", "a.response"}));

  journal.clear();
  proxy.resolve({Method::kGet, "/no/such/url", {}}, 0);
  EXPECT_EQ(journal, (std::vector<std::string>{"a.request", "a.response"}));
}

TEST(Interceptor, RespondWithInjectsArbitraryResponses) {
  OriginServer origin(small_asset(), {manifest::Protocol::kHls});
  Proxy proxy(origin);
  proxy.use(testing::respond_with(
      [](const Request& request, Seconds) -> std::optional<Response> {
        if (request.url.find("seg1") == std::string::npos) return std::nullopt;
        return make_error(503, "injected");
      }));
  EXPECT_EQ(proxy.resolve({Method::kGet, "/video/0/seg1.ts", {}}, 0).status,
            503);
  EXPECT_TRUE(proxy.resolve({Method::kGet, "/video/0/seg0.ts", {}}, 0).ok());
}

TEST(Interceptor, TapResponseMutatesWireFaultFields) {
  OriginServer origin(small_asset(), {manifest::Protocol::kHls});
  Proxy proxy(origin);
  proxy.use(testing::tap_response([](const Request&, Response& response, Seconds) {
    response.added_latency = 0.25;
    response.reset_after = 100;
  }));
  Response r = proxy.resolve({Method::kGet, "/video/0/seg0.ts", {}}, 0);
  EXPECT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.added_latency, 0.25);
  EXPECT_EQ(r.reset_after, 100);
  // Wire fault fields never change the nominal wire size.
  EXPECT_EQ(r.wire_size(), kHttpHeaderOverhead + r.payload_size);
}

TEST(Interceptor, IsManifestContentMatchesTheThreeManifestTypes) {
  EXPECT_TRUE(Proxy::is_manifest_content("application/vnd.apple.mpegurl"));
  EXPECT_TRUE(Proxy::is_manifest_content("application/dash+xml"));
  EXPECT_TRUE(Proxy::is_manifest_content("text/xml"));
  EXPECT_FALSE(Proxy::is_manifest_content("video/mp4"));
  EXPECT_FALSE(Proxy::is_manifest_content("video/mp2t"));
}

}  // namespace
}  // namespace vodx::http
