#include "core/report.h"

#include "core/qoe.h"

namespace vodx::core {

const std::array<QoeColumn, kQoeColumnCount>& qoe_columns() {
  static constexpr std::array<QoeColumn, kQoeColumnCount> columns = {{
      {"startup_delay_s", Format::fixed(2)},
      {"stall_count", Format::integer()},
      {"stall_time_s", Format::fixed(2)},
      {"avg_declared_bitrate_bps", Format::fixed(0)},
      {"low_quality_fraction", Format::fixed(4)},
      {"switches", Format::integer()},
      {"nonconsecutive_switches", Format::integer()},
      {"media_bytes", Format::integer()},
      {"total_bytes", Format::integer()},
      {"wasted_bytes", Format::integer()},
      {"qoe_score", Format::fixed(3)},
  }};
  return columns;
}

std::array<double, kQoeColumnCount> qoe_values(const SessionResult& result) {
  const QoeReport& q = result.qoe;
  return {q.startup_delay,
          static_cast<double>(q.stall_count),
          q.total_stall,
          q.average_declared_bitrate,
          q.low_quality_fraction,
          static_cast<double>(q.switch_count),
          static_cast<double>(q.nonconsecutive_switch_count),
          static_cast<double>(q.media_bytes),
          static_cast<double>(q.total_bytes),
          static_cast<double>(q.wasted_bytes),
          qoe_score(q, result.session_end)};
}

std::string qoe_csv_header() {
  std::string out = "label";
  for (const QoeColumn& column : qoe_columns()) {
    out += ',';
    out += column.name;
  }
  return out + '\n';
}

std::string qoe_csv_row(const std::string& label,
                        const SessionResult& result) {
  std::string out = label;
  const std::array<double, kQoeColumnCount> values = qoe_values(result);
  for (std::size_t i = 0; i < kQoeColumnCount; ++i) {
    out += ',';
    append_number(out, qoe_columns()[i].format, values[i]);
  }
  return out + '\n';
}

std::string buffer_csv(const SessionResult& result) {
  Table table;
  table.add_column("wall_s", Format::fixed(0));
  table.add_column("video_buffer_s", Format::fixed(2));
  table.add_column("audio_buffer_s", Format::fixed(2));
  for (const BufferSample& s : result.buffer) {
    table.add_row(s.wall, s.video_buffer, s.audio_buffer);
  }
  return table.csv();
}

}  // namespace vodx::core
