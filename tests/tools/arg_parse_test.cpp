// Strict CLI parsing: negative numeric values are values, not flags,
// integer lists accept "lo-hi" / "lo..hi" ranges, and --core accepts only
// its two names.
#include "arg_parse.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"

namespace vodx::tools {
namespace {

/// Owns argv storage for one parse run.
struct Argv {
  explicit Argv(std::vector<std::string> tokens) : storage(std::move(tokens)) {
    for (std::string& token : storage) pointers.push_back(token.data());
  }
  int argc() { return static_cast<int>(pointers.size()); }
  char** argv() { return pointers.data(); }

  std::vector<std::string> storage;
  std::vector<char*> pointers;
};

TEST(ArgParse, FlagShapeExcludesNegativeNumbers) {
  EXPECT_TRUE(Args::looks_like_flag("--jobs"));
  EXPECT_TRUE(Args::looks_like_flag("-v"));
  EXPECT_TRUE(Args::looks_like_flag("--"));
  EXPECT_FALSE(Args::looks_like_flag("-1"));
  EXPECT_FALSE(Args::looks_like_flag("-12.5"));
  EXPECT_FALSE(Args::looks_like_flag("-.5"));
  EXPECT_FALSE(Args::looks_like_flag("-"));
  EXPECT_FALSE(Args::looks_like_flag(""));
  EXPECT_FALSE(Args::looks_like_flag("value"));
  EXPECT_FALSE(Args::looks_like_flag(nullptr));
}

TEST(ArgParse, NegativeNumberIsConsumedAsAFlagValue) {
  Argv argv({"--budget", "-1"});
  Args args(argv.argc(), argv.argv());
  const char* value = args.value("--budget");
  ASSERT_NE(value, nullptr);
  EXPECT_STREQ(value, "-1");
  EXPECT_TRUE(args.done());
  EXPECT_FALSE(args.failed());
}

TEST(ArgParse, NegativeNumberIsAPositional) {
  Argv argv({"-0.5"});
  Args args(argv.argc(), argv.argv());
  const char* token = args.positional();
  ASSERT_NE(token, nullptr);
  EXPECT_STREQ(token, "-0.5");
  EXPECT_TRUE(args.done());
}

TEST(ArgParse, FlagIsNotAPositional) {
  Argv argv({"--jobs"});
  Args args(argv.argc(), argv.argv());
  EXPECT_EQ(args.positional(), nullptr);
  EXPECT_FALSE(args.done());
}

TEST(ArgParse, FlagMissingItsValueLatchesFailed) {
  Argv argv({"--jobs"});
  Args args(argv.argc(), argv.argv());
  EXPECT_EQ(args.value("--jobs"), nullptr);
  EXPECT_TRUE(args.failed());
  EXPECT_TRUE(args.done());
}

TEST(ArgParse, CanonicalLoopParsesAMixedCommandLine) {
  Argv argv({"--seeds", "0..3", "--progress", "positional", "--budget", "-1"});
  Args args(argv.argc(), argv.argv());
  std::string seeds;
  std::string budget;
  std::string pos;
  bool progress = false;
  while (!args.done()) {
    if (const char* v = args.value("--seeds")) {
      seeds = v;
    } else if (const char* v = args.value("--budget")) {
      budget = v;
    } else if (args.flag("--progress")) {
      progress = true;
    } else if (const char* token = args.positional()) {
      pos = token;
    } else {
      args.unknown();
    }
  }
  EXPECT_FALSE(args.failed());
  EXPECT_EQ(seeds, "0..3");
  EXPECT_EQ(budget, "-1");
  EXPECT_EQ(pos, "positional");
  EXPECT_TRUE(progress);
}

TEST(ArgParse, IntListExpandsDotDotRanges) {
  const std::vector<std::int64_t> got = parse_int_list("0..63", 0, 0, "seed");
  ASSERT_EQ(got.size(), 64u);
  EXPECT_EQ(got.front(), 0);
  EXPECT_EQ(got.back(), 63);
}

TEST(ArgParse, IntListExpandsDashRangesAndSingles) {
  const std::vector<std::int64_t> got =
      parse_int_list("1-3,7,10..11", 0, 0, "profile");
  EXPECT_EQ(got, (std::vector<std::int64_t>{1, 2, 3, 7, 10, 11}));
}

TEST(ArgParse, IntListAllUsesTheGivenBounds) {
  const std::vector<std::int64_t> got = parse_int_list("all", 2, 4, "profile");
  EXPECT_EQ(got, (std::vector<std::int64_t>{2, 3, 4}));
}

TEST(ArgParse, IntListSkipsMalformedTokens) {
  const std::vector<std::int64_t> got =
      parse_int_list("1,junk,3", 0, 0, "seed");
  EXPECT_EQ(got, (std::vector<std::int64_t>{1, 3}));
}

TEST(ArgParse, IntListSupportsNegativeEndpointsViaDotDot) {
  const std::vector<std::int64_t> got = parse_int_list("-2..1", 0, 0, "delta");
  EXPECT_EQ(got, (std::vector<std::int64_t>{-2, -1, 0, 1}));
}

TEST(ArgParse, SimCoreNamesMapToTheirCores) {
  EXPECT_EQ(parse_sim_core("event"), net::SimCore::kEvent);
  EXPECT_EQ(parse_sim_core("fixed"), net::SimCore::kFixedTickReference);
}

TEST(ArgParse, UnknownSimCoreThrowsNamingTheChoices) {
  for (const char* bad : {"bogus", "", "Event", "fixed "}) {
    try {
      parse_sim_core(bad);
      ADD_FAILURE() << "accepted --core '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("unknown --core '") + bad + "' (event|fixed)");
    }
  }
}

}  // namespace
}  // namespace vodx::tools
