// Man-in-the-middle proxy (§2.2, Figure 2).
//
// Sits between the simulated client and the origin. Everything the client
// fetches flows through here, which gives the methodology its powers:
//
//  * passive traffic capture into a TrafficLog (the Traffic Analyzer's input),
//  * an ordered Interceptor chain (http/interceptor.h) through which request
//    rejection, manifest rewriting (the Fig. 12 declared-vs-actual probe),
//    fault injection and any future middleware are all expressed.
#pragma once

#include <string>

#include "http/interceptor.h"
#include "http/message.h"
#include "http/origin_server.h"
#include "http/traffic_log.h"

namespace vodx::http {

class Proxy {
 public:
  explicit Proxy(const OriginServer& origin)
      : origin_(&origin), log_(origin.resolution()) {}

  /// Appends an interceptor to the chain and attaches it to this proxy.
  /// Chain position determines stage ordering — see http/interceptor.h.
  void use(InterceptorPtr interceptor);

  /// Resolves a request at simulated time `now`: request stage (first
  /// short-circuit wins) → origin → response stage in reverse registration
  /// order → manifest stage (ok manifest bodies).
  Response resolve(const Request& request, Seconds now) const;

  TrafficLog& log() { return log_; }
  const TrafficLog& log() const { return log_; }

  const OriginServer& origin() const { return *origin_; }

  /// True for content types the manifest stage rewrites.
  static bool is_manifest_content(const std::string& content_type);

 private:
  const OriginServer* origin_;
  TrafficLog log_;
  InterceptorChain chain_;
};

}  // namespace vodx::http
