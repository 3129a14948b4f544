// Unit tests for the benchmark's statistics, digest, JSON encoders and span
// recorder, and for the vodx median and JSON escaping they build on. Build
// and run with `python3 vodxbench/run.py --selftest`.
#include <cmath>
#include <cstdio>
#include <string>

#include "common/stats.h"
#include "support/digest.h"
#include "support/json.h"
#include "support/spans.h"
#include "support/stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(expr) check((expr), #expr, __LINE__)

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_median() {
  using vodx::median;
  CHECK(median({}) == 0);
  CHECK(median({5}) == 5);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);
}

void test_quartiles_match_python() {
  using vodxbench::quartiles;
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const vodxbench::Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  CHECK(near(q.q1, 2.75));
  CHECK(near(q.q2, 5.5));
  CHECK(near(q.q3, 8.25));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (extrapolates)
  const vodxbench::Quartiles two = quartiles({2, 1});
  CHECK(near(two.q1, 0.75));
  CHECK(near(two.q2, 1.5));
  CHECK(near(two.q3, 2.25));
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const vodxbench::Quartiles five = quartiles({16, 1, 8, 2, 4});
  CHECK(near(five.q1, 1.5));
  CHECK(near(five.q2, 4.0));
  CHECK(near(five.q3, 12.0));
  // (8.25 - 2.75) / 5.5 == 1
  CHECK(near(vodxbench::iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), 1.0));
}

void test_percentile_needs_ten_beyond() {
  using vodxbench::percentile;
  std::vector<double> values;
  for (int i = 1; i <= 999; ++i) values.push_back(i);
  CHECK(!percentile(values, 0.99).has_value());  // only 9 beyond rank 990
  values.push_back(1000);
  CHECK(percentile(values, 0.99).has_value());
  CHECK(*percentile(values, 0.99) == 990);  // ranks 991..1000 lie beyond
  CHECK(*percentile(values, 0.5) == 500);
  CHECK(!percentile({1, 2, 3}, 0.5).has_value());
  CHECK(*percentile({1, 2, 3}, 0.5, 1) == 2);
  CHECK(!percentile({}, 0.5, 0).has_value());
}

void test_digest() {
  using vodxbench::Digest;
  CHECK(Digest().add("abc").hex() == Digest().add("abc").hex());
  CHECK(Digest().add("abc").hex() != Digest().add("abd").hex());
  // Parts are length-prefixed: the split point matters.
  CHECK(Digest().add("ab").add("c").hex() != Digest().add("a").add("bc").hex());
  CHECK(Digest().add("").hex() != Digest().hex());
  CHECK(Digest().add("x").hex().size() == 16);
}

void test_json_escaping() {
  using vodxbench::json_string;
  CHECK(json_string("plain") == "\"plain\"");
  CHECK(json_string("a\"b\\c") == "\"a\\\"b\\\\c\"");
  CHECK(json_string("\n\t\r") == "\"\\n\\t\\r\"");
  CHECK(json_string("\b\f") == "\"\\u0008\\u000c\"");
  CHECK(json_string(std::string("\x01\x1f", 2)) == "\"\\u0001\\u001f\"");
  CHECK(json_string(std::string("nul\0x", 5)) == "\"nul\\u0000x\"");
  CHECK(json_string("\x7f") == "\"\x7f\"");  // DEL needs no escape
}

void test_json_numbers() {
  using vodxbench::json_number;
  CHECK(json_number(1.5) == "1.5");
  CHECK(json_number(0.1) == "0.1");  // shortest round-trip form
  CHECK(std::stod(json_number(1.0 / 3.0)) == 1.0 / 3.0);
  CHECK(json_number(NAN) == "null");
  CHECK(json_number(INFINITY) == "null");
}

void test_span_self_time() {
  vodxbench::SpanRecorder spans;
  const int outer = spans.open("outer", 7);
  const int inner = spans.open("inner", 7);
  spans.close(inner);
  spans.close(outer);
  const int unwound = spans.open("unwound");
  spans.open("left_open");
  spans.close(unwound);  // closes the child too
  CHECK(spans.spans()[3].end_ns >= 0);
  const std::vector<vodxbench::SpanStats> stats = spans.summarize();
  CHECK(stats.size() == 4);
  CHECK(stats[0].name == "outer");
  const auto& s = spans.spans();
  CHECK(stats[0].self_ns == (s[0].end_ns - s[0].start_ns) -
                                (s[1].end_ns - s[1].start_ns));
  CHECK(s[1].parent == 0 && s[1].session == 7);
  const std::string trace = spans.chrome_trace({"lane"});
  CHECK(trace.find("\"traceEvents\"") != std::string::npos);
  CHECK(trace.find("\"thread_name\"") != std::string::npos);
}

}  // namespace

int main() {
  test_median();
  test_quartiles_match_python();
  test_percentile_needs_ten_beyond();
  test_digest();
  test_json_escaping();
  test_json_numbers();
  test_span_self_time();
  if (failures == 0) std::printf("vodxbench support tests: all passed\n");
  return failures == 0 ? 0 : 1;
}
