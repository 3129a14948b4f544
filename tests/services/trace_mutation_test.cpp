// Seeded mutational check of the trace-text parser: every cellular
// profile's to_text, truncated, with a line dropped or duplicated, with a
// byte flipped, or with a sample replaced by a value a recorder could
// write (NaN, an infinity, a negative, a huge or out-of-range number, an
// empty or garbled field). Every input must parse or throw vodx::Error;
// nothing may abort or throw anything else, and a parsed trace holds only
// finite, non-negative samples over a positive duration.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "trace/cellular_profiles.h"
#include "trace/trace_io.h"

namespace vodx::trace {
namespace {

constexpr int kMutationsPerProfile = 160;

/// (start, length) of each '\n'-terminated line of `text`.
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
  std::string out = input;
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const auto lines = lines_of(out);
  const auto [start, length] = lines[pick(lines.size())];
  switch (rng.uniform_int(0, 4)) {
    case 0:  // truncate
      out.resize(pick(out.size() + 1));
      break;
    case 1:  // drop a line
      out.erase(start, length);
      break;
    case 2:  // duplicate a line
      out.insert(start, out.substr(start, length));
      break;
    case 3:  // flip a byte
      out[pick(out.size())] ^= static_cast<char>(rng.uniform_int(1, 255));
      break;
    default: {  // replace a line by a hostile value
      static const char* const kValues[] = {
          "nan",   "NaN",    "-nan",   "inf",     "-inf",    "infinity",
          "-1",    "-1e6",   "-0",     "1e308",   "1e999",   "-1e999",
          "1e-400", "0x1p1023", "4e6x", "", "  ", "1,5e6", "+", "."};
      const std::string value =
          kValues[pick(std::size(kValues))];
      out.replace(start, length, value + "\n");
      break;
    }
  }
  return out;
}

TEST(TraceMutation, EveryProfileMutationParsesOrThrowsError) {
  Rng rng(2017);
  int parsed = 0;
  int rejected = 0;
  for (int id = 1; id <= kProfileCount; ++id) {
    const std::string text = to_text(cellular_profile(id));
    for (int i = 0; i < kMutationsPerProfile; ++i) {
      const std::string input = mutate(text, rng);
      SCOPED_TRACE(::testing::Message() << "profile " << id << ", mutation "
                                        << i);
      try {
        const net::BandwidthTrace trace = from_text(input);
        ++parsed;
        ASSERT_GT(trace.duration(), 0);
        for (Seconds t = 0; t < trace.duration(); t += 1) {
          const Bps sample = trace.at(t);
          ASSERT_TRUE(std::isfinite(sample) && sample >= 0)
              << "sample " << sample << " at " << t << " s";
        }
      } catch (const Error&) {
        ++rejected;
      } catch (const std::exception& e) {
        FAIL() << "not a vodx::Error: " << e.what();
      }
    }
  }
  // Both outcomes occur: the mutations neither all break nor all miss.
  EXPECT_GT(parsed, kProfileCount * kMutationsPerProfile / 4);
  EXPECT_GT(rejected, kProfileCount * kMutationsPerProfile / 10);
}

}  // namespace
}  // namespace vodx::trace
