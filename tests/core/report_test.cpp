#include "core/report.h"

#include <gtest/gtest.h>

#include "common/strings.h"
#include "testing/fixtures.h"
#include "testing/lines.h"

namespace vodx::core {
namespace {

SessionResult sample_session() {
  SessionConfig config;
  config.spec = vodx::testing::test_spec(manifest::Protocol::kHls);
  config.trace = net::BandwidthTrace::constant(4e6, 60);
  config.session_duration = 60;
  config.content_duration = 300;
  return run_session(config);
}

TEST(Report, CsvRowMatchesHeaderArity) {
  SessionResult r = sample_session();
  const std::string header = qoe_csv_header();
  const std::string row = qoe_csv_row("x", r);
  EXPECT_EQ(split(trim(header), ',').size(), split(trim(row), ',').size());
}

TEST(Report, CsvRowCarriesTheNumbers) {
  SessionResult r = sample_session();
  const std::string row = qoe_csv_row("label", r);
  std::vector<std::string> cells = split(std::string(trim(row)), ',');
  EXPECT_EQ(cells[0], "label");
  EXPECT_NEAR(parse_double(cells[1]), r.qoe.startup_delay, 0.01);
  EXPECT_NEAR(parse_double(cells[4]), r.qoe.average_declared_bitrate, 1);
  EXPECT_EQ(parse_int(cells[8]), r.qoe.media_bytes);
}

TEST(Report, BufferCsvHasOneRowPerSample) {
  SessionResult r = sample_session();
  const std::string csv = buffer_csv(r);
  EXPECT_EQ(split_lines(csv).size(), r.buffer.size() + 1);  // + header
  EXPECT_NE(csv.find("wall_s,video_buffer_s,audio_buffer_s"),
            std::string::npos);
}

}  // namespace
}  // namespace vodx::core
