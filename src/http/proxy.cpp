#include "http/proxy.h"

#include <utility>

#include "obs/profiler.h"

namespace vodx::http {

bool Proxy::is_manifest_content(const std::string& content_type) {
  return content_type == "application/vnd.apple.mpegurl" ||
         content_type == "application/dash+xml" ||
         content_type == "text/xml";
}

void Proxy::use(InterceptorPtr interceptor) {
  interceptor->attach(*this);
  chain_.push_back(std::move(interceptor));
}

Response Proxy::resolve(const Request& request, Seconds now) const {
  VODX_PROFILE_ZONE("http.resolve");
  Response response;
  bool short_circuited = false;
  for (const auto& interceptor : chain_) {
    if (auto injected = interceptor->on_request(request, now)) {
      response = std::move(*injected);
      short_circuited = true;
      break;
    }
  }
  if (!short_circuited) response = origin_->handle(request);

  for (auto it = chain_.rbegin(); it != chain_.rend(); ++it) {
    (*it)->on_response(request, response, now);
  }

  // Last, so the response stage (the origin tier's edge fill, its retries
  // and failover) only ever sees and stores the bytes the server sent.
  if (response.ok() && is_manifest_content(response.content_type)) {
    std::string body = std::move(response.body);
    for (const auto& interceptor : chain_) {
      body = interceptor->on_manifest(request.url, std::move(body));
    }
    response.payload_size = static_cast<Bytes>(body.size());
    response.body = std::move(body);
  }
  return response;
}

}  // namespace vodx::http
