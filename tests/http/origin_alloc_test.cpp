// Allocation guard for building a title.
//
// This executable replaces the global operator new with a counting one, so
// it is built on its own. For each catalog service it builds the 120 s
// asset, then counts the heap allocations of constructing the OriginServer
// on it (rendering the manifests, indexing the URLs and resolving the
// title's own manifests). The count is deterministic; each is pinned at no
// more than 40 % of what the origin made when every segment had its own
// URL table entry and the renderers and parsers built temporaries per
// segment, so that per-segment churn cannot come back unnoticed.
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "http/origin_server.h"
#include "services/content_factory.h"
#include "services/service_catalog.h"

namespace {

bool g_counting = false;
std::uint64_t g_allocations = 0;

void* allocate(std::size_t size) noexcept {
  if (g_counting) ++g_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* allocate_or_throw(std::size_t size) {
  if (void* p = allocate(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every form that std::malloc backs, so that each delete frees what its new
// allocated (the nothrow forms serve std::stable_sort's buffer).
void* operator new(std::size_t size) { return allocate_or_throw(size); }
void* operator new[](std::size_t size) { return allocate_or_throw(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace vodx::http {
namespace {

/// Allocations of one OriginServer construction on the service's 120 s,
/// seed-1 asset (the asset itself is built before counting starts).
std::uint64_t count_origin_build(const services::ServiceSpec& spec) {
  media::VideoAsset asset = services::make_asset(spec, 120, 1);
  const OriginConfig config = spec.origin_config();
  g_allocations = 0;
  g_counting = true;
  const OriginServer origin(std::move(asset), config);
  g_counting = false;
  EXPECT_NE(origin.resolution(), nullptr) << spec.name;
  return g_allocations;
}

TEST(OriginAllocations, TitleBuildStaysWithinBound) {
  // What each build made with per-segment URL entries and temporaries.
  const std::map<std::string, std::uint64_t> before = {
      {"H1", 929},  {"H2", 1540}, {"H3", 476},  {"H4", 698},
      {"H5", 718},  {"H6", 716},  {"D1", 2808}, {"D2", 783},
      {"D3", 964},  {"D4", 674},  {"S1", 2965}, {"S2", 2895},
  };
  for (const services::ServiceSpec& spec : services::catalog()) {
    const std::uint64_t count = count_origin_build(spec);
    const auto it = before.find(spec.name);
    if (it == before.end()) {
      ADD_FAILURE() << spec.name << " has no pinned count; it made " << count;
      continue;
    }
    EXPECT_LE(count * 10, it->second * 4)
        << spec.name << ": " << count << " allocations, bound 40 % of "
        << it->second;
  }
}

TEST(OriginAllocations, CountIsDeterministic) {
  const services::ServiceSpec& spec = services::catalog().front();
  EXPECT_EQ(count_origin_build(spec), count_origin_build(spec));
}

}  // namespace
}  // namespace vodx::http
