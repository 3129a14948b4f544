// The lines of a text, for tests that check rendered output line by line.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"

namespace vodx {

inline std::vector<std::string> split_lines(std::string_view text) {
  std::vector<std::string> lines;
  while (!text.empty()) lines.emplace_back(next_line(text));
  return lines;
}

}  // namespace vodx
