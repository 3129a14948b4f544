// Repro artifacts: byte-stable round trips, tolerant parsing, hard errors
// on malformed input.
#include "chaos/repro.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vodx::chaos {
namespace {

ReproArtifact full_artifact() {
  ReproArtifact artifact;
  artifact.service = "H1";
  artifact.profile_id = 3;
  artifact.duration = 60;
  artifact.chaos_seed = 17;
  artifact.invariants = "buffer.bounds, qoe.finite";
  faults::FaultPlan& plan = artifact.plan;
  plan.name = "fuzz-17-min";
  plan.seed = 17;
  plan.latency.push_back({{"seg", 5, 40}, 0.25, 0.5, 0.75});
  plan.errors.push_back({{"playlist", 0, -1}, 503, 0.2});
  plan.resets.push_back({{"", 10, 20}, 0.5, 0.1});
  plan.rejects.push_back({{"manifest", 0, -1}, 3, 0});
  plan.blackouts.push_back({30, 4.5});
  return artifact;
}

TEST(Repro, RoundTripIsByteIdentical) {
  const std::string json = to_json(full_artifact());
  const ReproArtifact parsed = parse_repro(json);
  EXPECT_EQ(to_json(parsed), json);
}

TEST(Repro, RoundTripPreservesEveryField) {
  const ReproArtifact a = parse_repro(to_json(full_artifact()));
  EXPECT_EQ(a.service, "H1");
  EXPECT_EQ(a.profile_id, 3);
  EXPECT_DOUBLE_EQ(a.duration, 60);
  EXPECT_EQ(a.chaos_seed, 17u);
  EXPECT_EQ(a.invariants, "buffer.bounds, qoe.finite");
  EXPECT_EQ(a.plan.name, "fuzz-17-min");
  EXPECT_EQ(a.plan.seed, 17u);
  ASSERT_EQ(a.plan.latency.size(), 1u);
  EXPECT_EQ(a.plan.latency[0].match.url_contains, "seg");
  EXPECT_DOUBLE_EQ(a.plan.latency[0].match.start, 5);
  EXPECT_DOUBLE_EQ(a.plan.latency[0].match.end, 40);
  EXPECT_DOUBLE_EQ(a.plan.latency[0].base, 0.25);
  EXPECT_DOUBLE_EQ(a.plan.latency[0].jitter, 0.5);
  EXPECT_DOUBLE_EQ(a.plan.latency[0].probability, 0.75);
  ASSERT_EQ(a.plan.errors.size(), 1u);
  EXPECT_EQ(a.plan.errors[0].status, 503);
  EXPECT_DOUBLE_EQ(a.plan.errors[0].match.end, -1);
  ASSERT_EQ(a.plan.resets.size(), 1u);
  EXPECT_DOUBLE_EQ(a.plan.resets[0].after_fraction, 0.5);
  ASSERT_EQ(a.plan.rejects.size(), 1u);
  EXPECT_EQ(a.plan.rejects[0].every_nth, 3);
  ASSERT_EQ(a.plan.blackouts.size(), 1u);
  EXPECT_DOUBLE_EQ(a.plan.blackouts[0].start, 30);
  EXPECT_DOUBLE_EQ(a.plan.blackouts[0].duration, 4.5);
}

TEST(Repro, ParsesHandWrittenJsonWithReorderedKeysAndDefaults) {
  const ReproArtifact a = parse_repro(R"({
    "plan": {"errors": [{"status": 500}], "name": "hand"},
    "chaos_seed": 9,
    "service": "D2"
  })");
  EXPECT_EQ(a.service, "D2");
  EXPECT_EQ(a.profile_id, 7);       // default
  EXPECT_DOUBLE_EQ(a.duration, 120);  // default
  EXPECT_EQ(a.chaos_seed, 9u);
  ASSERT_EQ(a.plan.errors.size(), 1u);
  EXPECT_EQ(a.plan.errors[0].status, 500);
  EXPECT_DOUBLE_EQ(a.plan.errors[0].probability, 0.1);  // field default
  EXPECT_TRUE(a.plan.errors[0].match.url_contains.empty());
}

TEST(Repro, MalformedInputThrowsParseError) {
  EXPECT_THROW(parse_repro(""), ParseError);
  EXPECT_THROW(parse_repro("{"), ParseError);
  EXPECT_THROW(parse_repro("[]"), ParseError);          // not an object
  EXPECT_THROW(parse_repro("{\"service\": \"H1\"}"), ParseError);  // no plan
  EXPECT_THROW(parse_repro("{\"plan\": {}} trailing"), ParseError);
  EXPECT_THROW(parse_repro("{\"plan\": {\"seed\": }}"), ParseError);
}

TEST(Repro, EscapesQuotesAndBackslashesInStrings) {
  ReproArtifact artifact;
  artifact.service = "H1";
  artifact.plan.name = "odd \"name\" with \\ backslash";
  const ReproArtifact parsed = parse_repro(to_json(artifact));
  EXPECT_EQ(parsed.plan.name, artifact.plan.name);

  // Control characters round-trip through their escaped form and never
  // appear raw in the artifact.
  artifact.plan.name = "tab\tnl\ncr\rbs\bff\fsoh\x01us\x1f";
  const std::string json = to_json(artifact);
  EXPECT_NE(json.find(R"(tab\tnl\ncr\rbs\u0008ff\u000csoh\u0001us\u001f)"),
            std::string::npos)
      << json;
  EXPECT_EQ(parse_repro(json).plan.name, artifact.plan.name);
  EXPECT_EQ(to_json(parse_repro(json)), json);
}

TEST(Repro, ReadsEveryJsonStringEscape) {
  const ReproArtifact a = parse_repro(
      R"({"service": "a\rb\bc\fd\/e\u0041\u00e9", "plan": {}})");
  EXPECT_EQ(a.service, "a\rb\bc\fd/eA\xc3\xa9");
  EXPECT_THROW(parse_repro(R"({"service": "\u00g1", "plan": {}})"),
               ParseError);
  EXPECT_THROW(parse_repro(R"({"service": "\u00)"), ParseError);
}

TEST(Repro, ReadsTheIndentedLayoutOfEarlierArtifacts) {
  // An artifact exactly as the earlier, indented to_json printed it.
  const std::string indented = R"({
  "service": "H1",
  "profile": 3,
  "duration_s": 60,
  "chaos_seed": 17,
  "invariants": "buffer.bounds, \"qoe\".finite\\",
  "origin_mode": "hardened",
  "plan": {
    "name": "fuzz-17-min",
    "seed": 17,
    "latency": [{"match":{"url_contains":"seg","start":5,"end":40},"base":0.25,"jitter":0.5,"probability":0.75}],
    "errors": [{"match":{"url_contains":"playlist","start":0,"end":-1},"status":503,"probability":0.2}],
    "resets": [{"match":{"url_contains":"","start":10,"end":20},"after_fraction":0.5,"probability":0.1}],
    "rejects": [{"match":{"url_contains":"manifest","start":0,"end":-1},"every_nth":3,"probability":0}],
    "blackouts": [{"start":30,"duration":4.5}],
    "cache_flushes": [{"at":12.5}],
    "dc_blackouts": [{"start":40,"duration":8}]
  }
}
)";
  ReproArtifact expected = full_artifact();
  expected.invariants = "buffer.bounds, \"qoe\".finite\\";
  expected.origin_mode = "hardened";
  expected.plan.cache_flushes.push_back({12.5});
  expected.plan.dc_blackouts.push_back({40, 8});

  const ReproArtifact parsed = parse_repro(indented);
  EXPECT_EQ(to_json(parsed), to_json(expected));
  EXPECT_EQ(parsed.invariants, expected.invariants);
  EXPECT_EQ(parsed.origin_mode, "hardened");
  ASSERT_EQ(parsed.plan.cache_flushes.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.plan.cache_flushes[0].at, 12.5);
  ASSERT_EQ(parsed.plan.dc_blackouts.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.plan.dc_blackouts[0].duration, 8);
  // Today's compact form round-trips byte for byte.
  EXPECT_EQ(to_json(parse_repro(to_json(parsed))), to_json(parsed));
}

TEST(Repro, CliLineNamesTheReplayCommand) {
  EXPECT_EQ(full_artifact().cli_line("out/chaos-17.json"),
            "vodx chaos --repro out/chaos-17.json");
}

}  // namespace
}  // namespace vodx::chaos
