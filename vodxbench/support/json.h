// The two JSON leaf encoders the benchmark's result line and trace file use.
#pragma once

#include <string>
#include <string_view>

namespace vodxbench {

/// A quoted JSON string, escaped by vodx::obs::json_escape.
std::string json_string(std::string_view raw);

/// A JSON number with every digit needed to round-trip the double; NaN and
/// infinities become null.
std::string json_number(double value);

}  // namespace vodxbench
