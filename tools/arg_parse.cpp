#include "arg_parse.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/error.h"
#include "common/strings.h"
#include "obs/export.h"

namespace vodx::tools {

const char* Args::value(const char* flag) {
  if (done() || std::strcmp(argv_[i_], flag) != 0) return nullptr;
  if (i_ + 1 >= argc_) {
    std::fprintf(stderr, "error: %s needs a value\n", flag);
    failed_ = true;
    advance();
    return nullptr;
  }
  i_ += 2;
  return argv_[i_ - 1];
}

bool Args::flag(const char* name) {
  if (done() || std::strcmp(argv_[i_], name) != 0) return false;
  advance();
  return true;
}

const char* Args::positional() {
  if (done() || looks_like_flag(argv_[i_])) return nullptr;
  return argv_[i_++];
}

void Args::unknown() {
  if (done()) return;
  std::fprintf(stderr, "error: unknown or incomplete option %s\n", argv_[i_]);
  failed_ = true;
  advance();
}

std::vector<std::int64_t> parse_int_list(const std::string& text,
                                         std::int64_t all_lo,
                                         std::int64_t all_hi,
                                         const char* what) {
  std::vector<std::int64_t> out;
  for (const std::string& token : split(text, ',')) {
    const std::string t(trim(token));
    if (t.empty()) continue;
    if (t == "all") {
      for (std::int64_t v = all_lo; v <= all_hi; ++v) out.push_back(v);
      continue;
    }
    try {
      // Ranges: "lo-hi" or "lo..hi" (the latter stays unambiguous with
      // negative endpoints, e.g. "-3..3").
      const std::size_t dots = t.find("..");
      const std::size_t dash =
          dots == std::string::npos ? t.find('-', 1) : std::string::npos;
      if (dots != std::string::npos) {
        const std::int64_t lo = parse_int(t.substr(0, dots));
        const std::int64_t hi = parse_int(t.substr(dots + 2));
        for (std::int64_t v = lo; v <= hi; ++v) out.push_back(v);
      } else if (dash == std::string::npos) {
        out.push_back(parse_int(t));
      } else {
        const std::int64_t lo = parse_int(t.substr(0, dash));
        const std::int64_t hi = parse_int(t.substr(dash + 1));
        for (std::int64_t v = lo; v <= hi; ++v) out.push_back(v);
      }
    } catch (const Error&) {
      std::fprintf(stderr, "bad %s token \"%s\" — skipped\n", what, t.c_str());
    }
  }
  return out;
}

std::vector<std::string> parse_name_list(
    const std::string& text, const std::vector<std::string>& all_names) {
  std::vector<std::string> out;
  for (const std::string& token : split(text, ',')) {
    const std::string name(trim(token));
    if (name.empty()) continue;
    if (name == "all") {
      out.insert(out.end(), all_names.begin(), all_names.end());
      continue;
    }
    out.push_back(name);
  }
  return out;
}

net::SimCore parse_sim_core(const char* text) {
  const std::string core = text;
  if (core == "event") return net::SimCore::kEvent;
  if (core == "fixed") return net::SimCore::kFixedTickReference;
  throw Error(format("unknown --core '%s' (event|fixed)", text));
}

bool ObsOutputs::parse(Args& args) {
  if (const char* v = args.value("--trace-out")) {
    chrome_trace_path = v;
    return true;
  }
  if (const char* v = args.value("--events-out")) {
    jsonl_path = v;
    return true;
  }
  if (const char* v = args.value("--metrics-out")) {
    metrics_path = v;
    return true;
  }
  return false;
}

void ObsOutputs::write(const obs::Observer& observer,
                       Seconds session_end) const {
  auto open = [](const std::string& path) {
    std::ofstream out(path);
    if (!out) throw Error(format("cannot write %s", path.c_str()));
    return out;
  };
  if (!chrome_trace_path.empty()) {
    std::ofstream out = open(chrome_trace_path);
    obs::write_chrome_trace(observer.trace, out);
    std::fprintf(stderr, "wrote %s (%zu events; open in chrome://tracing)\n",
                 chrome_trace_path.c_str(), observer.trace.size());
  }
  if (!jsonl_path.empty()) {
    std::ofstream out = open(jsonl_path);
    obs::write_jsonl(observer.trace, out);
  }
  if (!metrics_path.empty()) {
    std::ofstream out = open(metrics_path);
    out << obs::metrics_report(observer.metrics.snapshot(session_end));
  }
}

}  // namespace vodx::tools
