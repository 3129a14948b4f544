// Machine-readable exports of session results, for spreadsheets/plotters.
#pragma once

#include <array>
#include <string>

#include "common/table.h"
#include "core/session.h"

namespace vodx::core {

/// One QoE column of a session export: its CSV header and JSONL key, and
/// its format, integer or fixed.
struct QoeColumn {
  const char* name;
  Format format;
};
inline constexpr std::size_t kQoeColumnCount = 11;

/// The session QoE columns in export order. qoe_csv_header/qoe_csv_row,
/// batch::sweep_csv and the ok cells of batch::sweep_jsonl all read this
/// one list.
const std::array<QoeColumn, kQoeColumnCount>& qoe_columns();

/// A session's value in each of qoe_columns(), in the same order.
std::array<double, kQoeColumnCount> qoe_values(const SessionResult& result);

/// One-line CSV header matching qoe_csv_row().
std::string qoe_csv_header();

/// Flattens a session's QoE report into one CSV row.
std::string qoe_csv_row(const std::string& label, const SessionResult& result);

/// Buffer-occupancy timeline as CSV (wall,video_buffer,audio_buffer).
std::string buffer_csv(const SessionResult& result);

}  // namespace vodx::core
