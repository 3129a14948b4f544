// The edge cache's hash index and LRU list against a reference model.
//
// OriginState keeps its entries in least-recently-used order so eviction
// takes the front instead of scanning the cache. This suite drives a real
// Proxy + OriginTier through seeded streams of GET, HEAD and ranged
// requests: fills, hits, coalesced joins, duplicate fills (a refill of a key
// already in the cache), TTL expiries and scheduled flushes at capacities
// 4–8. After every request it compares the surviving identities and the
// tier's totals with a model keyed by the identity's string form that
// evicts by linear scan over the smallest last-use tick.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "http/proxy.h"
#include "origin/origin.h"
#include "testing/fixtures.h"

namespace vodx::origin {
namespace {

constexpr Seconds kTtl = 3;
constexpr const char* kScope = "lru|1";

/// The cache as the tier kept it before the index: a key map whose
/// eviction victim is found by scanning for the smallest last-use tick.
class ReferenceCache {
 public:
  ReferenceCache(std::size_t capacity, bool coalesce,
                 std::vector<Seconds> flushes)
      : capacity_(capacity), coalesce_(coalesce),
        flushes_(std::move(flushes)) {}

  /// A fill is ready `packaging` seconds after the miss that starts it.
  void request(const std::string& key, Seconds now, Seconds packaging) {
    for (Seconds at : flushes_) {
      if (at > now) break;
      if (at <= last_flush_) continue;
      entries_.clear();
      last_flush_ = at;
      ++totals.flushes;
    }
    auto it = entries_.find(key);
    if (it != entries_.end() && now >= it->second.expires) {
      entries_.erase(it);
      ++totals.expired;
      it = entries_.end();
    }
    if (it != entries_.end()) {
      if (now >= it->second.ready_at) {
        it->second.lru = ++tick_;
        ++totals.hits;
        return;
      }
      if (coalesce_) {
        it->second.lru = ++tick_;
        ++totals.coalesced;
        return;
      }
      ++totals.dup_fills;
    }
    ++totals.misses;
    entries_[key] = Entry{now + kTtl, now + packaging, ++tick_};
    while (entries_.size() > capacity_) {
      auto victim = entries_.begin();
      for (auto e = entries_.begin(); e != entries_.end(); ++e) {
        if (e->second.lru < victim->second.lru) victim = e;
      }
      entries_.erase(victim);
      ++evictions;
    }
  }

  std::set<std::string> keys() const {
    std::set<std::string> out;
    for (const auto& [key, entry] : entries_) out.insert(key);
    return out;
  }

  OriginState::Totals totals;
  long long evictions = 0;

 private:
  struct Entry {
    Seconds expires = 0;
    Seconds ready_at = 0;
    std::uint64_t lru = 0;
  };

  std::size_t capacity_;
  bool coalesce_;
  std::vector<Seconds> flushes_;
  Seconds last_flush_ = -1;
  std::uint64_t tick_ = 0;
  std::map<std::string, Entry> entries_;
};

/// The repackaging latency a fill of `response` pays at the tier.
Seconds packaging_of(const http::Response& response) {
  if (http::Proxy::is_manifest_content(response.content_type)) {
    return kManifestPackaging;
  }
  const double mb = static_cast<double>(response.payload_size) / 1e6;
  return kSegmentPackagingBase + kSegmentPackagingPerMb * mb;
}

/// The reference model's string form of a request identity.
std::string model_key(const std::string& scope, http::Method method,
                      std::string_view url,
                      const std::optional<manifest::ByteRange>& range) {
  std::string key = scope;
  key += method == http::Method::kHead ? "|HEAD|" : "|GET|";
  key += url;
  if (range) {
    key += format("|%lld-%lld", static_cast<long long>(range->first),
                  static_cast<long long>(range->last));
  }
  return key;
}

std::set<std::string> tier_keys(const OriginState& state) {
  std::set<std::string> out;
  for (const OriginState::Entry& entry : state.lru) {
    out.insert(model_key(state.scopes.at(entry.key.scope), entry.key.method,
                         entry.key.url, entry.key.range));
  }
  return out;
}

void expect_totals_equal(const OriginState::Totals& got,
                         const OriginState::Totals& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.expired, want.expired);
  EXPECT_EQ(got.coalesced, want.coalesced);
  EXPECT_EQ(got.dup_fills, want.dup_fills);
  EXPECT_EQ(got.flushes, want.flushes);
  EXPECT_EQ(got.consistency_failures, want.consistency_failures);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.trips, want.trips);
  EXPECT_EQ(got.probes, want.probes);
  EXPECT_EQ(got.secondary, want.secondary);
  EXPECT_EQ(got.errors, want.errors);
}

/// The index holds exactly one node per entry, keyed by that entry's key,
/// whose URL views the entry's own buffer; every entry records its filler.
void expect_index_consistent(const OriginState& state) {
  ASSERT_EQ(state.index.size(), state.lru.size());
  for (const OriginState::Entry& entry : state.lru) {
    const auto it = state.index.find(entry.key);
    ASSERT_NE(it, state.index.end()) << entry.url;
    EXPECT_EQ(&*it->second, &entry) << entry.url;
    EXPECT_EQ(entry.key.url.data(), entry.url.data()) << entry.url;
    EXPECT_EQ(it->first.url.data(), entry.url.data()) << entry.url;
    EXPECT_EQ(entry.filler, entry.key.scope) << entry.url;
  }
}

struct Stream {
  int capacity = 4;
  bool coalesce = true;
  std::uint64_t seed = 1;
};

void run_stream(const Stream& stream) {
  SCOPED_TRACE(format("capacity %d, coalesce %d, seed %llu", stream.capacity,
                      stream.coalesce ? 1 : 0,
                      static_cast<unsigned long long>(stream.seed)));
  OriginOptions options = hardened_origin();
  options.cache_capacity = stream.capacity;
  options.cache_ttl_s = kTtl;
  options.coalesce = stream.coalesce;

  // Three rungs of 15 four-second segments plus the playlists: about 50
  // URLs, several times that with HEADs and two byte ranges, against a
  // cache of 4–8 entries.
  std::vector<std::string> urls = {"/master.m3u8"};
  for (int rung = 0; rung < 3; ++rung) {
    urls.push_back(format("/video/%d/playlist.m3u8", rung));
    for (int seg = 0; seg < 15; ++seg) {
      urls.push_back(format("/video/%d/seg%d.ts", rung, seg));
    }
  }

  Rng rng(stream.seed);
  constexpr int kRequests = 600;
  std::vector<Seconds> flushes;
  for (int i = 0; i < 6; ++i) flushes.push_back(rng.uniform(0, 200));
  std::sort(flushes.begin(), flushes.end());

  http::OriginServer server(testing::small_asset(),
                            {manifest::Protocol::kHls});
  http::Proxy proxy(server);
  auto state = std::make_shared<OriginState>();
  auto tier = std::make_shared<OriginTier>(options, state, kScope);
  std::vector<faults::CacheFlushFault> flush_faults;
  for (Seconds at : flushes) flush_faults.push_back({at});
  tier->set_fault_schedule(flush_faults, {});
  proxy.use(tier);
  ReferenceCache model(static_cast<std::size_t>(stream.capacity),
                       stream.coalesce, flushes);

  // A small hot set is re-requested often (hits, and joins while a fill is
  // still in flight); the rest of the stream walks the whole catalogue.
  Seconds now = 0;
  std::size_t last = 0;
  int ranged = 0;
  for (int i = 0; i < kRequests; ++i) {
    now += rng.uniform(0, 1) < 0.3 ? 0 : rng.uniform(0, 0.8);
    std::size_t pick;
    if (rng.uniform(0, 1) < 0.3) {
      pick = last;
    } else if (rng.uniform(0, 1) < 0.4) {
      pick = static_cast<std::size_t>(rng.uniform_int(0, 2));
    } else {
      pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(urls.size()) - 1));
    }
    last = pick;
    const bool head = rng.uniform(0, 1) < 0.2;
    const http::Method method = head ? http::Method::kHead
                                     : http::Method::kGet;
    // Two overlapping ranges, on segments only.
    std::optional<manifest::ByteRange> range;
    if (urls[pick].ends_with(".ts") && rng.uniform(0, 1) < 0.3) {
      range = rng.uniform(0, 1) < 0.5 ? manifest::ByteRange{0, 99}
                              : manifest::ByteRange{50, 149};
      ++ranged;
    }
    const http::Response response =
        proxy.resolve({method, urls[pick], range}, now);
    ASSERT_TRUE(response.ok()) << urls[pick];
    model.request(model_key(kScope, method, urls[pick], range), now,
                  packaging_of(response));

    SCOPED_TRACE(format("request %d (%s at %.3f s)", i, urls[pick].c_str(),
                        now));
    ASSERT_EQ(tier_keys(*state), model.keys());
    expect_totals_equal(state->totals, model.totals);
    expect_index_consistent(*state);
    if (::testing::Test::HasFailure()) return;
  }
  // The stream must have exercised every path the index touches.
  EXPECT_GT(model.totals.hits, 0);
  EXPECT_GT(model.totals.expired, 0);
  EXPECT_GT(model.totals.flushes, 0);
  if (stream.coalesce) {
    EXPECT_GT(model.totals.coalesced, 0);
  } else {
    EXPECT_GT(model.totals.dup_fills, 0);
  }
  EXPECT_GT(model.evictions, 0);
  EXPECT_GT(ranged, 0);
}

TEST(EdgeCacheLru, MatchesLinearScanEvictionAtSmallCapacities) {
  for (int capacity = 4; capacity <= 8; ++capacity) {
    for (bool coalesce : {true, false}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        run_stream({capacity, coalesce, seed});
        if (HasFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace vodx::origin
