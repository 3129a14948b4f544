#include "manifest/uri.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/strings.h"

namespace vodx::manifest {
namespace {

/// Directory of a URL path: "/a/b/c.m3u8" -> "/a/b/".
std::string directory(std::string_view url) {
  const std::size_t slash = url.rfind('/');
  if (slash == std::string_view::npos) return "/";
  return std::string(url.substr(0, slash + 1));
}

/// The split-based resolver uri_resolve replaced, kept as the reference
/// the allocation-free walk must agree with on every input.
std::string reference_resolve(std::string_view base_url,
                              std::string_view reference) {
  std::string joined;
  if (!reference.empty() && reference.front() == '/') {
    joined = std::string(reference);
  } else {
    joined = directory(base_url) + std::string(reference);
  }
  std::vector<std::string> parts;
  for (const std::string& part : split(joined, '/')) {
    if (part.empty() || part == ".") continue;
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
      continue;
    }
    parts.push_back(part);
  }
  std::string out;
  for (const std::string& part : parts) out += "/" + part;
  return out.empty() ? "/" : out;
}

TEST(Uri, ResolveRelative) {
  EXPECT_EQ(uri_resolve("/master.m3u8", "video/0/playlist.m3u8"),
            "/video/0/playlist.m3u8");
  EXPECT_EQ(uri_resolve("/video/0/playlist.m3u8", "seg1.ts"),
            "/video/0/seg1.ts");
}

TEST(Uri, ResolveAbsolute) {
  EXPECT_EQ(uri_resolve("/a/b/c.mpd", "/other/media.mp4"), "/other/media.mp4");
}

TEST(Uri, NormalisesDotSegments) {
  EXPECT_EQ(uri_resolve("/a/b/c.mpd", "../x.mp4"), "/a/x.mp4");
  EXPECT_EQ(uri_resolve("/a/b/c.mpd", "./x.mp4"), "/a/b/x.mp4");
  EXPECT_EQ(uri_resolve("/a/c.mpd", "../../x.mp4"), "/x.mp4");
}

TEST(Uri, CollapsesDoubleSlashes) {
  EXPECT_EQ(uri_resolve("/a//b.mpd", "x.mp4"), "/a/x.mp4");
}

TEST(Uri, RootEdgeCases) {
  EXPECT_EQ(uri_resolve("/m.mpd", ".."), "/");
}

TEST(Uri, EmptyAndDotReferences) {
  EXPECT_EQ(uri_resolve("/a/b/c.mpd", ""), "/a/b");
  EXPECT_EQ(uri_resolve("/a/b/c.mpd", "."), "/a/b");
  EXPECT_EQ(uri_resolve("/a/b/c.mpd", ".."), "/a");
  EXPECT_EQ(uri_resolve("/a/b/c.mpd", "/"), "/");
  EXPECT_EQ(uri_resolve("", ""), "/");
}

TEST(Uri, MixedDotSegmentsAndTrailingSlash) {
  EXPECT_EQ(uri_resolve("/x/m.mpd", "a/./b/../c"), "/x/a/c");
  EXPECT_EQ(uri_resolve("/x/m.mpd", "a/b/"), "/x/a/b");
  EXPECT_EQ(uri_resolve("/x/m.mpd", "/a/b/"), "/a/b");
  EXPECT_EQ(uri_resolve("/x/y/", "z"), "/x/y/z");
}

TEST(Uri, BaseWithoutSlash) {
  EXPECT_EQ(uri_resolve("m.mpd", "x.ts"), "/x.ts");
  EXPECT_EQ(uri_resolve("m.mpd", "../x.ts"), "/x.ts");
  EXPECT_EQ(uri_resolve("", "a/b"), "/a/b");
}

TEST(Uri, ParentPastTheRootRepeatedly) {
  EXPECT_EQ(uri_resolve("/a/m.mpd", "../../../x"), "/x");
  EXPECT_EQ(uri_resolve("/a/m.mpd", "../../.."), "/");
  EXPECT_EQ(uri_resolve("/m.mpd", "../../x/../../y/"), "/y");
}

TEST(Uri, EdgeCasesAgreeWithReference) {
  const char* bases[] = {"/a/b/c.mpd", "/m.mpd", "m.mpd", "", "/x/y/", "/"};
  const char* references[] = {"",    ".",   "..",         "a/./b/../c",
                              "a/",  "/",   "../../../x", "//a//b//",
                              "./.", "../", "/..",        "a/.."};
  for (const char* base : bases) {
    for (const char* reference : references) {
      EXPECT_EQ(uri_resolve(base, reference),
                reference_resolve(base, reference))
          << "base '" << base << "' reference '" << reference << "'";
    }
  }
}

TEST(Uri, RandomPathsAgreeWithReference) {
  // Paths over {a, b, ., /} hit every normalisation rule: empty components,
  // ".", "..", longer dot runs, and names that only start with a dot.
  std::mt19937_64 rng(20170101);
  const char alphabet[] = {'a', 'b', '.', '/'};
  auto random_path = [&] {
    std::string path(rng() % 13, 'a');
    for (char& c : path) c = alphabet[rng() % 4];
    return path;
  };
  for (int i = 0; i < 10000; ++i) {
    const std::string base = random_path();
    const std::string reference = random_path();
    ASSERT_EQ(uri_resolve(base, reference), reference_resolve(base, reference))
        << "base '" << base << "' reference '" << reference << "'";
  }
}

}  // namespace
}  // namespace vodx::manifest
