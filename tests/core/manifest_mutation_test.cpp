// Seeded mutational check of the manifest resolver: every catalog service's
// rendered root manifest, media playlists and sidx boxes, truncated, with a
// line dropped or duplicated, or with a byte flipped. Each mutated input goes
// to manifest::resolve_manifest / complete_track and to analyze_traffic on
// a log that carries it. Every input must resolve or throw vodx::Error;
// nothing may abort, trip a VODX_ASSERT or throw anything else.
//
// Each log is analyzed twice: alone, and with the pristine title's
// Resolution attached. Both must give the same analysis or the same error,
// and the title must reject the mutated bytes: a byte mismatch never
// returns the title's cached result.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/traffic_analyzer.h"
#include "http/origin_server.h"
#include "http/traffic_log.h"
#include "manifest/presentation.h"
#include "services/content_factory.h"
#include "services/service_catalog.h"
#include "testing/analysis.h"

namespace vodx::core {
namespace {

constexpr int kMutationsPerInput = 48;

/// Line spans of `text` ('\n'-terminated; a binary body is one "line" or a
/// few).
std::vector<std::pair<std::size_t, std::size_t>> lines_of(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    end = end == std::string::npos ? text.size() : end + 1;
    lines.emplace_back(start, end - start);
    start = end;
  }
  return lines;
}

std::string mutate(const std::string& input, Rng& rng) {
  if (input.empty()) return input;
  std::string out = input;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  switch (rng.uniform_int(0, 3)) {
    case 0:  // truncate
      out.resize(pick(out.size()));
      break;
    case 1: {  // drop a line
      const auto lines = lines_of(out);
      const auto [start, length] = lines[pick(lines.size())];
      out.erase(start, length);
      break;
    }
    case 2:  // flip a byte
      out[pick(out.size())] ^= static_cast<char>(rng.uniform_int(1, 255));
      break;
    default: {  // duplicate a line
      const auto lines = lines_of(out);
      const auto [start, length] = lines[pick(lines.size())];
      out.insert(start, out.substr(start, length));
      break;
    }
  }
  return out;
}

/// One service's rendered resources, as a client fetches them.
struct Resources {
  std::string root_url;
  http::Response root;
  std::vector<manifest::TrackDraft> pending;  ///< tracks waiting on `second`
  std::vector<http::Response> second;         ///< playlist / sidx per track
  /// First segment of every track, to exercise the request mapping.
  std::vector<std::pair<manifest::MediaRef, http::Response>> segments;
};

Resources render(const services::ServiceSpec& spec,
                 const http::OriginServer& origin) {
  Resources out;
  out.root_url = origin.manifest_url();
  out.root = origin.handle({http::Method::kGet, out.root_url, std::nullopt});
  const std::string clear = http::is_scrambled(out.root.body)
                                ? http::unscramble_manifest(out.root.body)
                                : out.root.body;
  for (manifest::TrackDraft& draft :
       manifest::resolve_manifest(spec.protocol, out.root_url, clear)) {
    manifest::ClientTrack track;
    if (draft.pending) {
      const manifest::MediaRef ref = *draft.pending;
      out.second.push_back(
          origin.handle({http::Method::kGet, ref.url, ref.range}));
      out.pending.push_back(draft);
      track = manifest::complete_track(std::move(draft),
                                       out.second.back().body);
    } else {
      track = std::move(draft.track);
    }
    if (track.segments.empty()) continue;
    const manifest::ClientSegment& first = track.segments.front();
    const manifest::MediaRef ref{track.url_of(first), first.range};
    out.segments.emplace_back(
        ref, origin.handle({http::Method::kGet, ref.url, ref.range}));
  }
  return out;
}

/// The log a client leaves when it fetched `res` — with `root` and
/// `second[mutated_second]` (if >= 0) replaced by the given bodies — with
/// `title` attached.
http::TrafficLog log_of(const Resources& res, const std::string& root,
                        int mutated_second, const std::string& second_body,
                        const manifest::Resolution* title = nullptr) {
  http::TrafficLog log(title);
  Seconds t = 0;
  auto add = [&](const std::string& url,
                 const std::optional<manifest::ByteRange>& range,
                 http::Response response) {
    const int id =
        log.open(http::Method::kGet, url, range, t, response, "c0", 0);
    log.complete(id, t + 0.1, response.payload_size);
    t += 0.2;
  };
  http::Response root_response = res.root;
  root_response.body = root;
  add(res.root_url, std::nullopt, root_response);
  for (std::size_t i = 0; i < res.pending.size(); ++i) {
    http::Response response = res.second[i];
    if (static_cast<int>(i) == mutated_second) response.body = second_body;
    add(res.pending[i].pending->url, res.pending[i].pending->range, response);
  }
  for (const auto& [ref, response] : res.segments) {
    add(ref.url, ref.range, response);
  }
  return log;
}

void expect_clean(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error&) {
    // A clean rejection.
  }
}

/// analyze_traffic on the log, or the message of the Error it threw.
std::optional<AnalyzedTraffic> analyze(const http::TrafficLog& log,
                                       std::string* error) {
  try {
    return analyze_traffic(log);
  } catch (const Error& e) {
    *error = e.what();
    return std::nullopt;
  }
}

/// The log analyzes cleanly, and to the same result or error with the
/// pristine title attached as without it.
void expect_title_changes_nothing(const Resources& res,
                                  const manifest::Resolution& title,
                                  const std::string& root, int mutated_second,
                                  const std::string& second_body) {
  std::string plain_error;
  std::string titled_error;
  const std::optional<AnalyzedTraffic> plain =
      analyze(log_of(res, root, mutated_second, second_body), &plain_error);
  const std::optional<AnalyzedTraffic> titled = analyze(
      log_of(res, root, mutated_second, second_body, &title), &titled_error);
  EXPECT_EQ(plain_error, titled_error);
  ASSERT_EQ(plain.has_value(), titled.has_value());
  if (plain) vodx::testing::expect_same_traffic(*plain, *titled);
}

/// The catalog, plus the two resolver branches no catalog service takes:
/// HLS v4 byte-range segments and DASH SegmentTemplate.
std::vector<services::ServiceSpec> services_under_test() {
  std::vector<services::ServiceSpec> specs = services::catalog();
  services::ServiceSpec ranged = services::service("H1");
  ranged.name = "H1-byterange";
  ranged.hls_byterange = true;
  services::ServiceSpec templated = services::service("D2");
  templated.name = "D2-template";
  templated.dash_index = manifest::DashIndexMode::kSegmentTemplate;
  specs.push_back(ranged);
  specs.push_back(templated);
  return specs;
}

TEST(ManifestMutation, EveryMutatedInputResolvesOrThrowsCleanly) {
  int inputs = 0;
  for (const services::ServiceSpec& spec : services_under_test()) {
    SCOPED_TRACE(spec.name);
    const http::OriginServer origin = services::make_origin(spec, 40, 7);
    ASSERT_NE(origin.resolution(), nullptr);
    const manifest::Resolution& title = *origin.resolution();
    const Resources res = render(spec, origin);
    // The unmutated log analyzes, alone and through the title.
    EXPECT_NO_THROW(analyze_traffic(log_of(res, res.root.body, -1, "")));
    expect_title_changes_nothing(res, title, res.root.body, -1, "");
    Rng rng(static_cast<std::uint64_t>(spec.name.size() * 131 +
                                       static_cast<unsigned char>(
                                           spec.name.back())));
    const bool scrambled = http::is_scrambled(res.root.body);
    for (int m = 0; m < kMutationsPerInput; ++m) {
      ++inputs;
      const std::string root = mutate(res.root.body, rng);
      expect_clean([&] {
        const std::string clear =
            scrambled ? http::unscramble_manifest(root) : root;
        EXPECT_EQ(title.sources_for(spec.protocol, res.root_url, clear),
                  nullptr);
        for (manifest::TrackDraft& draft :
             manifest::resolve_manifest(spec.protocol, res.root_url, clear)) {
          if (!draft.pending) continue;
          const http::Response r = origin.handle(
              {http::Method::kGet, draft.pending->url, draft.pending->range});
          expect_clean(
              [&] { manifest::complete_track(std::move(draft), r.body); });
        }
      });
      expect_title_changes_nothing(res, title, root, -1, "");
    }
    for (std::size_t i = 0; i < res.pending.size(); ++i) {
      for (int m = 0; m < kMutationsPerInput; ++m) {
        ++inputs;
        const std::string body = mutate(res.second[i].body, rng);
        expect_clean([&] { manifest::complete_track(res.pending[i], body); });
        EXPECT_FALSE(title.same_resources(
            [&](const manifest::MediaRef& ref) -> const std::string* {
              for (std::size_t k = 0; k < res.pending.size(); ++k) {
                if (*res.pending[k].pending == ref) {
                  return k == i ? &body : &res.second[k].body;
                }
              }
              return nullptr;
            }));
        expect_title_changes_nothing(res, title, res.root.body,
                                     static_cast<int>(i), body);
      }
    }
  }
  RecordProperty("inputs", inputs);
  EXPECT_GT(inputs, 1000);
}

}  // namespace
}  // namespace vodx::core
