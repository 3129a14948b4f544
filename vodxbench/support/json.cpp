#include "support/json.h"

#include <charconv>
#include <cmath>

#include "obs/export.h"

namespace vodxbench {

std::string json_string(std::string_view raw) {
  return "\"" + vodx::obs::json_escape(std::string(raw)) + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

}  // namespace vodxbench
