// Composable session interception (§2.2's proxy powers, generalised).
//
// The paper's methodology is built on perturbing traffic in flight:
// rejecting requests, rewriting manifests, injecting failures. Instead of
// one ad-hoc hook per power, the proxy carries an ordered chain of
// Interceptors, each of which may participate in three stages, run in this
// order:
//
//   on_request   registration order; the first interceptor returning a
//                Response short-circuits the origin (and the rest of the
//                request stage) — rejections and injected HTTP errors.
//   on_response  REVERSE registration order (onion semantics: the first
//                interceptor registered sees the response last) — mutation
//                of headers/wire effects such as added latency or a
//                scheduled connection reset.
//   on_manifest  registration order, last of all; body rewriting for ok()
//                responses whose content type parses as a manifest (the
//                Fig.-12 Manifest Modifier). The rewrite happens on the
//                client side of every other stage, as the paper's proxy
//                rewrites what the server sent: an edge cache in the
//                response stage stores the server's bytes, and a retried
//                or failed-over manifest is rewritten all the same.
//
// attach() fires once when the interceptor is registered on a proxy, so
// stateful interceptors (e.g. the startup probe's segment classifier) can
// bind to the live traffic log.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "http/message.h"

namespace vodx::http {

class Proxy;

class Interceptor {
 public:
  virtual ~Interceptor() = default;

  /// Called once, from Proxy::use(), with the proxy the interceptor now
  /// serves. Default: nothing.
  virtual void attach(Proxy& proxy) { (void)proxy; }

  /// Request stage. Return a Response to answer without consulting the
  /// origin (later interceptors' request stages are skipped); nullopt to
  /// pass through. `now` is the simulated time of the request.
  virtual std::optional<Response> on_request(const Request& request,
                                             Seconds now) {
    (void)request;
    (void)now;
    return std::nullopt;
  }

  /// Manifest stage. Receives the (possibly already-rewritten) body of an
  /// ok() manifest response, after every response stage ran; returns the
  /// replacement body.
  virtual std::string on_manifest(const std::string& url, std::string body) {
    (void)url;
    return body;
  }

  /// Response stage. May mutate the response in place (status, body, wire
  /// fault fields). Runs for every response, including short-circuited and
  /// error responses.
  virtual void on_response(const Request& request, Response& response,
                           Seconds now) {
    (void)request;
    (void)response;
    (void)now;
  }
};

using InterceptorPtr = std::shared_ptr<Interceptor>;
using InterceptorChain = std::vector<InterceptorPtr>;

/// Manifest-stage rewrite as a one-liner stage: receives (url, body),
/// returns the new body.
InterceptorPtr transform_manifest(
    std::function<std::string(const std::string&, std::string)> fn);

}  // namespace vodx::http
