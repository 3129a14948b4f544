// Error taxonomy shared by all vodx libraries.
//
// Parsing and protocol violations throw; programming errors use VODX_ASSERT
// which aborts with a message (we never continue on a broken invariant).
#pragma once

#include <stdexcept>
#include <string>

namespace vodx {

/// Base class for all errors raised by vodx libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed input: manifest, sidx box, HTTP message, trace file.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error("parse error: " + what) {}
};

/// Invalid configuration supplied by the caller.
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what)
      : Error("config error: " + what) {}
};

namespace detail {
[[noreturn]] void assert_fail(const char* expr, const char* file, int line,
                              const std::string& msg);
}  // namespace detail

}  // namespace vodx

/// Invariant check that stays on in release builds; violation aborts.
#define VODX_ASSERT(expr, msg)                                       \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::vodx::detail::assert_fail(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                \
  } while (false)
