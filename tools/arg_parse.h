// Shared strict argument parsing for the repo's command-line tools.
//
// Every tool follows the same grammar: a handful of `--flag value` pairs,
// a few bare `--flag` switches, and at most one kind of positional token.
// Args is a cursor over argv that makes the canonical parse loop flat:
//
//   Args args(argc, argv);
//   while (!args.done()) {
//     if (const char* v = args.value("--jobs")) jobs = parse_int(v);
//     else if (args.flag("--progress")) progress = true;
//     else if (const char* tok = args.positional()) use(tok);
//     else args.unknown();
//   }
//   if (args.failed()) return usage();
//
// Unknown options and flags missing their value are reported to stderr and
// latch failed(); parsing continues so every mistake is reported in one run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "net/simulator.h"
#include "obs/observer.h"

namespace vodx::tools {

class Args {
 public:
  Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

  bool done() const { return i_ >= argc_; }
  const char* current() const { return done() ? "" : argv_[i_]; }
  void advance() {
    if (!done()) ++i_;
  }

  /// Matches `--flag value`: returns the value and consumes both tokens, or
  /// nullptr when the current token is something else. A matching flag with
  /// no value following it is reported and latches failed().
  const char* value(const char* flag);

  /// Matches a bare `--flag` and consumes it.
  bool flag(const char* name);

  /// Consumes and returns the current token when it is not flag-shaped;
  /// nullptr otherwise. Negative numbers ("-1", "-0.5") are positionals,
  /// not flags.
  const char* positional();

  /// The current token matched nothing: report it, latch failed(), skip it.
  void unknown();

  bool failed() const { return failed_; }

  /// '-' followed by anything except a digit or '.' — so "--jobs" and "-v"
  /// are flags but negative numeric values ("-1", "-.5") are not and flow
  /// through value()/positional() unharmed (e.g. `--budget -1` = unlimited).
  static bool looks_like_flag(const char* token) {
    if (token == nullptr || token[0] != '-' || token[1] == '\0') return false;
    const char next = token[1];
    return !(next >= '0' && next <= '9') && next != '.';
  }

 private:
  int argc_;
  char** argv_;
  int i_ = 0;
  bool failed_ = false;
};

/// Expands "all", "3", "1-5" and comma-joined mixes of those into a list of
/// integers; malformed tokens are reported to stderr and skipped. `what`
/// names the quantity in diagnostics ("profile", "seed", ...).
std::vector<std::int64_t> parse_int_list(const std::string& text,
                                         std::int64_t all_lo,
                                         std::int64_t all_hi,
                                         const char* what);

/// Splits a comma-separated name list, trimming blanks; "all" expands to
/// `all_names`.
std::vector<std::string> parse_name_list(
    const std::string& text, const std::vector<std::string>& all_names);

/// Parses a `--core` value: "event" or "fixed". Anything else throws Error
/// naming the accepted values.
net::SimCore parse_sim_core(const char* text);

/// Observability outputs requested on the command line. The observer is
/// created lazily by the caller: a session without any -out flag runs
/// untraced (and thus at full speed).
struct ObsOutputs {
  std::string chrome_trace_path;  ///< --trace-out (chrome://tracing JSON)
  std::string jsonl_path;         ///< --events-out (one event per line)
  std::string metrics_path;       ///< --metrics-out (text table)

  bool wanted() const {
    return !chrome_trace_path.empty() || !jsonl_path.empty() ||
           !metrics_path.empty();
  }

  /// Consumes one `--*-out value` pair if the cursor points at one.
  bool parse(Args& args);

  void write(const obs::Observer& observer, Seconds session_end) const;
};

}  // namespace vodx::tools
