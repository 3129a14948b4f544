#include "http/interceptor.h"

namespace vodx::http {

namespace {

class TransformManifest : public Interceptor {
 public:
  explicit TransformManifest(
      std::function<std::string(const std::string&, std::string)> fn)
      : fn_(std::move(fn)) {}

  std::string on_manifest(const std::string& url, std::string body) override {
    return fn_(url, std::move(body));
  }

 private:
  std::function<std::string(const std::string&, std::string)> fn_;
};

}  // namespace

InterceptorPtr transform_manifest(
    std::function<std::string(const std::string&, std::string)> fn) {
  return std::make_shared<TransformManifest>(std::move(fn));
}

}  // namespace vodx::http
