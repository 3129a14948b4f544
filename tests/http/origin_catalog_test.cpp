// The origin serves exactly what it always served: every URL of every
// catalog title (and of the HLS byte-range and DASH SegmentTemplate modes,
// which no catalog service uses), at two content durations and two content
// seeds, answers GET and HEAD with the same status, payload size, content
// type and body.
//
// The URLs come from a copy of the origin's per-protocol formulas kept
// here, so the test does not depend on how the origin finds a resource.
// Sizes are checked against the asset; every response field (manifest
// bytes included) is folded into a digest pinned per case.
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "http/origin_server.h"
#include "manifest/smooth.h"
#include "media/sidx.h"
#include "services/content_factory.h"
#include "services/service_catalog.h"

namespace vodx::http {
namespace {

/// FNV-1a over every field of each response, in request order.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (char c : bytes) {
      value_ ^= static_cast<unsigned char>(c);
      value_ *= 1099511628211ull;
    }
    value_ ^= 0xff;
    value_ *= 1099511628211ull;
  }
  void add(std::int64_t n) { add(std::to_string(n)); }
  void add(const Response& r) {
    add(r.status);
    add(r.content_type);
    add(r.body);
    add(r.payload_size);
    add(r.head_content_length);
  }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 14695981039346656037ull;
};

struct Case {
  std::string name;  ///< service plus mode variant
  services::ServiceSpec spec;
  OriginConfig config;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const services::ServiceSpec& spec : services::catalog()) {
    out.push_back({spec.name, spec, spec.origin_config()});
  }
  // The two modes no catalog service uses.
  const services::ServiceSpec& h1 = services::service("H1");
  OriginConfig byterange = h1.origin_config();
  byterange.hls_byterange = true;
  out.push_back({"H1-byterange", h1, byterange});
  const services::ServiceSpec& d2 = services::service("D2");
  OriginConfig templated = d2.origin_config();
  templated.dash_index = manifest::DashIndexMode::kSegmentTemplate;
  out.push_back({"D2-template", d2, templated});
  return out;
}

class Prober {
 public:
  Prober(const OriginServer& origin, Digest& digest)
      : origin_(origin), digest_(digest) {}

  Response get(const std::string& url,
               std::optional<manifest::ByteRange> range = std::nullopt) {
    return ask(Method::kGet, url, range);
  }
  Response head(const std::string& url,
                std::optional<manifest::ByteRange> range = std::nullopt) {
    return ask(Method::kHead, url, range);
  }

  /// A manifest or playlist: the whole text, any HEAD its length.
  void text(const std::string& url, const std::string& content_type) {
    const Response g = get(url);
    EXPECT_EQ(g.status, 200) << url;
    EXPECT_EQ(g.content_type, content_type) << url;
    EXPECT_FALSE(g.body.empty()) << url;
    EXPECT_EQ(g.payload_size, static_cast<Bytes>(g.body.size())) << url;
    const Response h = head(url);
    EXPECT_EQ(h.status, 200) << url;
    EXPECT_EQ(h.head_content_length, g.payload_size) << url;
    EXPECT_EQ(h.payload_size, 0) << url;
    EXPECT_TRUE(h.body.empty()) << url;
  }

  /// A whole-resource segment of `size` bytes.
  void segment(const std::string& url, Bytes size) {
    const Response g = get(url);
    EXPECT_EQ(g.status, 200) << url;
    EXPECT_EQ(g.content_type, "video/mp2t") << url;
    EXPECT_EQ(g.payload_size, size) << url;
    EXPECT_TRUE(g.body.empty()) << url;
    const Response h = head(url);
    EXPECT_EQ(h.status, 200) << url;
    EXPECT_EQ(h.head_content_length, size) << url;
    EXPECT_EQ(h.payload_size, 0) << url;
  }

  /// Ranges on a whole-resource segment: a prefix is served, a range past
  /// its end is not.
  void segment_ranges(const std::string& url, Bytes size) {
    const Response in = get(url, manifest::ByteRange{0, size / 2});
    EXPECT_EQ(in.status, 206) << url;
    EXPECT_EQ(in.payload_size, size / 2 + 1) << url;
    EXPECT_EQ(get(url, manifest::ByteRange{0, size}).status, 416) << url;
    const Response h = head(url, manifest::ByteRange{1, size - 1});
    EXPECT_EQ(h.status, 206) << url;
    EXPECT_EQ(h.head_content_length, size - 1) << url;
  }

  /// A range-served media file of `total` bytes whose head is `blob`, with
  /// segments at `ranges`.
  void file(const std::string& url, Bytes total, const std::string& blob,
            const std::vector<manifest::ByteRange>& ranges) {
    const Response whole = get(url);
    EXPECT_EQ(whole.status, 200) << url;
    EXPECT_EQ(whole.content_type, "video/mp4") << url;
    EXPECT_EQ(whole.payload_size, total) << url;
    EXPECT_EQ(whole.body, blob) << url;
    const Response h = head(url);
    EXPECT_EQ(h.status, 200) << url;
    EXPECT_EQ(h.head_content_length, total) << url;
    if (!blob.empty()) {
      const manifest::ByteRange index{0,
                                      static_cast<Bytes>(blob.size()) - 1};
      const Response r = get(url, index);
      EXPECT_EQ(r.status, 206) << url;
      EXPECT_EQ(r.body, blob) << url;
      EXPECT_EQ(media::parse_sidx(r.body).references.size(), ranges.size())
          << url;
      // A range straddling the blob's end carries the blob's tail.
      const Response straddle =
          get(url, manifest::ByteRange{index.last - 3, index.last + 10});
      EXPECT_EQ(straddle.status, 206) << url;
      EXPECT_EQ(straddle.body, blob.substr(blob.size() - 4)) << url;
      EXPECT_EQ(straddle.payload_size, 14) << url;
    }
    for (const manifest::ByteRange& range : ranges) {
      const Response r = get(url, range);
      EXPECT_EQ(r.status, 206) << url << " " << range.to_string();
      EXPECT_EQ(r.payload_size, range.length()) << url;
      EXPECT_TRUE(r.body.empty()) << url;
      const Response rh = head(url, range);
      EXPECT_EQ(rh.status, 206) << url;
      EXPECT_EQ(rh.head_content_length, range.length()) << url;
    }
    const Response past = get(url, manifest::ByteRange{total - 1, total});
    EXPECT_EQ(past.status, 416) << url;
    EXPECT_EQ(past.body, "range not satisfiable") << url;
    EXPECT_EQ(head(url, manifest::ByteRange{0, total}).status, 416) << url;
  }

  void unknown(const std::string& url) {
    for (Method method : {Method::kGet, Method::kHead}) {
      const Response r = ask(method, url, std::nullopt);
      EXPECT_EQ(r.status, 404) << url;
      EXPECT_EQ(r.content_type, "text/plain") << url;
      EXPECT_EQ(r.body, "unknown resource: " + url) << url;
    }
  }

 private:
  Response ask(Method method, const std::string& url,
               std::optional<manifest::ByteRange> range) {
    Response r = origin_.handle({method, url, range});
    digest_.add(url);
    digest_.add(r);
    return r;
  }

  const OriginServer& origin_;
  Digest& digest_;
};

void probe_hls(Prober& p, const media::VideoAsset& asset,
               const OriginConfig& config) {
  p.text("/master.m3u8", "application/vnd.apple.mpegurl");
  for (int level = 0; level < asset.video_track_count(); ++level) {
    const media::Track& track = asset.video_track(level);
    p.text(format("/video/%d/playlist.m3u8", level),
           "application/vnd.apple.mpegurl");
    if (config.hls_byterange) {
      std::vector<manifest::ByteRange> ranges;
      for (const media::Segment& s : track.segments()) {
        ranges.push_back({s.offset, s.offset + s.size - 1});
      }
      p.file(format("/video/%d/media.ts", level), track.total_size(), "",
             ranges);
      continue;
    }
    for (const media::Segment& s : track.segments()) {
      p.segment(format("/video/%d/seg%d.ts", level, s.index), s.size);
    }
    const media::Segment& first = track.segments().front();
    p.segment_ranges(format("/video/%d/seg0.ts", level), first.size);
  }
  p.unknown(format("/video/0/seg%d.ts",
                   asset.video_track(0).segment_count()));
  p.unknown(format("/video/%d/seg0.ts", asset.video_track_count()));
}

void probe_dash(Prober& p, const media::VideoAsset& asset,
                const OriginConfig& config) {
  p.text("/manifest.mpd", config.encrypt_manifest ? "application/octet-stream"
                                                  : "application/dash+xml");
  auto probe_set = [&](const std::vector<media::Track>& tracks,
                       const char* prefix) {
    for (std::size_t level = 0; level < tracks.size(); ++level) {
      const media::Track& track = tracks[level];
      if (config.dash_index == manifest::DashIndexMode::kSegmentTemplate) {
        for (const media::Segment& s : track.segments()) {
          p.segment(format("/%s/%zu/seg%d.m4s", prefix, level, s.index + 1),
                    s.size);
        }
        p.segment_ranges(format("/%s/%zu/seg1.m4s", prefix, level),
                         track.segments().front().size);
        p.unknown(format("/%s/%zu/seg0.m4s", prefix, level));
        p.unknown(format("/%s/%zu/media.mp4", prefix, level));
        continue;
      }
      std::string blob;
      if (config.dash_index == manifest::DashIndexMode::kSidx) {
        blob = media::serialize_sidx(media::sidx_for_track(track));
      }
      const Bytes head = static_cast<Bytes>(blob.size());
      std::vector<manifest::ByteRange> ranges;
      for (const media::Segment& s : track.segments()) {
        ranges.push_back({head + s.offset, head + s.offset + s.size - 1});
      }
      p.file(format("/%s/%zu/media.mp4", prefix, level),
             head + track.total_size(), blob, ranges);
    }
  };
  probe_set(asset.video_tracks(), "video");
  probe_set(asset.audio_tracks(), "audio");
  p.unknown("/video/0/seg1.ts");
}

void probe_smooth(Prober& p, const media::VideoAsset& asset) {
  p.text("/manifest.ism", "text/xml");
  auto probe_stream = [&](const std::vector<media::Track>& tracks,
                          const char* tag) {
    for (const media::Track& track : tracks) {
      const long long bitrate = std::llround(track.declared_bitrate());
      Seconds start = 0;  // the segment's start, summed in order
      for (const media::Segment& s : track.segments()) {
        const auto ticks = static_cast<std::uint64_t>(std::llround(
            start * static_cast<double>(manifest::kSmoothTimescale)));
        start += s.duration;
        p.segment(format("/QualityLevels(%lld)/Fragments(%s=%llu)", bitrate,
                         tag, static_cast<unsigned long long>(ticks)),
                  s.size);
      }
      p.segment_ranges(
          format("/QualityLevels(%lld)/Fragments(%s=0)", bitrate, tag),
          track.segments().front().size);
      p.unknown(format("/QualityLevels(%lld)/Fragments(%s=1)", bitrate, tag));
    }
  };
  probe_stream(asset.video_tracks(), "video");
  probe_stream(asset.audio_tracks(), "audio");
}

std::uint64_t probe_title(const Case& c, Seconds duration,
                          std::uint64_t seed) {
  Digest digest;
  const OriginServer origin(services::make_asset(c.spec, duration, seed),
                            c.config);
  Prober p(origin, digest);
  switch (c.config.protocol) {
    case manifest::Protocol::kHls:
      probe_hls(p, origin.asset(), c.config);
      break;
    case manifest::Protocol::kDash:
      probe_dash(p, origin.asset(), c.config);
      break;
    case manifest::Protocol::kSmooth:
      probe_smooth(p, origin.asset());
      break;
  }
  p.unknown("/nope");
  p.unknown("/");
  return digest.value();
}

TEST(OriginCatalog, EveryUrlServesWhatItServed) {
  // Per case: {120 s seed 1, 120 s seed 2, 600 s seed 1, 600 s seed 2}.
  const std::vector<std::vector<std::uint64_t>> pinned = {
      {0xcb3a41555025ff2cull, 0xae38c216e7f073c4ull,  // H1
       0x8e4d390b95d2b332ull, 0x12346810b8b47fe7ull},
      {0x1d34c58220a29145ull, 0xa6674a1a2a8ba6cbull,  // H2
       0xbca93d433e286059ull, 0x09686061beb7ea84ull},
      {0xf5862a5b42ac6aa8ull, 0x41eab15c642c93e9ull,  // H3
       0xd753e0c52334aa64ull, 0x277a1e7759cc7379ull},
      {0xbc76fa643b2081c2ull, 0x77d6ca7e9cb4f363ull,  // H4
       0x9c9c2f630101e3e5ull, 0x5574094584b7c1a2ull},
      {0xf31f0d729582d280ull, 0xfc8e56463b33483full,  // H5
       0xb09a9f042f4812acull, 0x18579201fd4ac044ull},
      {0xf23b4d9ca61d2726ull, 0xe402f35a4236d1c5ull,  // H6
       0x23593e741363d981ull, 0x249c37f1e9ca57e9ull},
      {0x9c0f687f0bbfe4f7ull, 0xa698b51769668b89ull,  // D1
       0x847b014f587af394ull, 0x9fd6a1a19513d5d0ull},
      {0x20c9606a1b944429ull, 0xefc85789566b1a51ull,  // D2
       0x0d195070c9c34cf6ull, 0x6d977c688114b3caull},
      {0xb644766f9bc02503ull, 0x9ba293215ef5a22bull,  // D3
       0x087fbe335bd00510ull, 0x880b77c91cb6597cull},
      {0xeb3ea95ec24f0e6eull, 0x8e125400e6baa4aaull,  // D4
       0xd13e3f18384e9f83ull, 0x127aab32ddafb6b9ull},
      {0x564fb877e56355aaull, 0x03b211d793f97b9bull,  // S1
       0xc0a6882f18e7b94cull, 0x6a9641710784faf9ull},
      {0x4569cd1bad99101eull, 0xb49c86693d1dc9adull,  // S2
       0xae7a891d94f58343ull, 0xc80b53e7e037f4d9ull},
      {0xc770bcf88bb8d7a1ull, 0xc20b008f4a451133ull,  // H1-byterange
       0x1eb5f20b51062c9aull, 0x2b68f7ef9e225a58ull},
      {0x38ad9f1eff727da8ull, 0x2cb7991c7e5808b1ull,  // D2-template
       0x5efe200dcd88a6a1ull, 0xa89e5d13aaaf85c4ull},
  };
  const std::vector<Case> all = cases();
  std::vector<std::vector<std::uint64_t>> got;
  for (const Case& c : all) {
    std::vector<std::uint64_t>& row = got.emplace_back();
    for (Seconds duration : {120.0, 600.0}) {
      for (std::uint64_t seed : {1ull, 2ull}) {
        row.push_back(probe_title(c, duration, seed));
      }
    }
  }
  std::string table;
  for (std::size_t i = 0; i < got.size(); ++i) {
    table += "      {";
    for (std::size_t j = 0; j < got[i].size(); ++j) {
      table += format("%s0x%016llxull", j ? ", " : "",
                      static_cast<unsigned long long>(got[i][j]));
    }
    table += "},  // " + all[i].name + "\n";
  }
  EXPECT_EQ(got, pinned) << table;
}

}  // namespace
}  // namespace vodx::http
