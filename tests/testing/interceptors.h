// Single-stage interceptors built from a lambda, for tests that need one
// proxy hook without a named class.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "http/interceptor.h"

namespace vodx::testing {

/// Request stage: return a Response to short-circuit the origin.
inline http::InterceptorPtr respond_with(
    std::function<std::optional<http::Response>(const http::Request&, Seconds)>
        fn) {
  struct Stage : http::Interceptor {
    std::function<std::optional<http::Response>(const http::Request&, Seconds)>
        fn;
    std::optional<http::Response> on_request(const http::Request& request,
                                             Seconds now) override {
      return fn(request, now);
    }
  };
  auto stage = std::make_shared<Stage>();
  stage->fn = std::move(fn);
  return stage;
}

/// Rejects (403) every request the predicate accepts.
inline http::InterceptorPtr reject_if(
    std::function<bool(const http::Request&)> predicate) {
  return respond_with(
      [predicate = std::move(predicate)](const http::Request& request,
                                         Seconds) -> std::optional<http::Response> {
        if (predicate(request)) return http::make_error(403, "rejected by proxy");
        return std::nullopt;
      });
}

/// Response stage: may mutate the response in place.
inline http::InterceptorPtr tap_response(
    std::function<void(const http::Request&, http::Response&, Seconds)> fn) {
  struct Stage : http::Interceptor {
    std::function<void(const http::Request&, http::Response&, Seconds)> fn;
    void on_response(const http::Request& request, http::Response& response,
                     Seconds now) override {
      fn(request, response, now);
    }
  };
  auto stage = std::make_shared<Stage>();
  stage->fn = std::move(fn);
  return stage;
}

}  // namespace vodx::testing
