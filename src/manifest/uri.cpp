#include "manifest/uri.h"

namespace vodx::manifest {
namespace {

/// Appends the '/'-separated components of `path` to the normalised path
/// `out` ("" or "/a/b"): empty and "." components are dropped, ".." drops
/// the last component kept so far (and nothing at the root).
void append_components(std::string& out, std::string_view path) {
  while (true) {
    const std::size_t slash = path.find('/');
    const std::string_view part = path.substr(0, slash);
    if (part == "..") {
      if (!out.empty()) out.resize(out.rfind('/'));
    } else if (!part.empty() && part != ".") {
      out += '/';
      out += part;
    }
    if (slash == std::string_view::npos) return;
    path.remove_prefix(slash + 1);
  }
}

}  // namespace

std::string uri_resolve(std::string_view base_url, std::string_view reference) {
  // A relative reference joins the base's directory, which ends in '/', so
  // the two are walked one after the other without building the join.
  std::string_view directory;
  if (reference.empty() || reference.front() != '/') {
    const std::size_t slash = base_url.rfind('/');
    if (slash != std::string_view::npos) directory = base_url.substr(0, slash);
  }
  std::string out;
  out.reserve(directory.size() + reference.size() + 1);
  append_components(out, directory);
  append_components(out, reference);
  if (out.empty()) out.push_back('/');
  return out;
}

}  // namespace vodx::manifest
