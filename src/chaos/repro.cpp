#include "chaos/repro.h"

#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"

namespace vodx::chaos {

namespace {

// --- Emission --------------------------------------------------------------

std::string match_json(const faults::Match& match) {
  return format(R"({"url_contains":"%s","start":%.6g,"end":%.6g})",
                json_escape(match.url_contains).c_str(), match.start,
                match.end);
}

// --- Parsing ---------------------------------------------------------------

faults::Match parse_match(const Json& json) {
  faults::Match match;
  const Json* m = json.find("match");
  if (m == nullptr) return match;
  match.url_contains = m->str_or("url_contains", "");
  match.start = m->num_or("start", 0);
  match.end = m->num_or("end", -1);
  return match;
}

}  // namespace

std::string ReproArtifact::cli_line(const std::string& path) const {
  return format("vodx chaos --repro %s", path.c_str());
}

std::string to_json(const ReproArtifact& artifact) {
  const faults::FaultPlan& plan = artifact.plan;
  std::string out = "{\n";
  out += format("  \"service\": \"%s\",\n",
                json_escape(artifact.service).c_str());
  out += format("  \"profile\": %d,\n", artifact.profile_id);
  out += format("  \"duration_s\": %.6g,\n", artifact.duration);
  out += format("  \"chaos_seed\": %llu,\n",
                static_cast<unsigned long long>(artifact.chaos_seed));
  out += format("  \"invariants\": \"%s\",\n",
                json_escape(artifact.invariants).c_str());
  out += format("  \"origin_mode\": \"%s\",\n",
                json_escape(artifact.origin_mode).c_str());
  out += format("  \"plan\": {\n    \"name\": \"%s\",\n    \"seed\": %llu,\n",
                json_escape(plan.name).c_str(),
                static_cast<unsigned long long>(plan.seed));

  out += "    \"latency\": [";
  for (std::size_t i = 0; i < plan.latency.size(); ++i) {
    const faults::LatencyFault& f = plan.latency[i];
    out += format(R"(%s{"match":%s,"base":%.6g,"jitter":%.6g,)"
                  R"("probability":%.6g})",
                  i == 0 ? "" : ",", match_json(f.match).c_str(), f.base,
                  f.jitter, f.probability);
  }
  out += "],\n    \"errors\": [";
  for (std::size_t i = 0; i < plan.errors.size(); ++i) {
    const faults::ErrorFault& f = plan.errors[i];
    out += format(R"(%s{"match":%s,"status":%d,"probability":%.6g})",
                  i == 0 ? "" : ",", match_json(f.match).c_str(), f.status,
                  f.probability);
  }
  out += "],\n    \"resets\": [";
  for (std::size_t i = 0; i < plan.resets.size(); ++i) {
    const faults::ResetFault& f = plan.resets[i];
    out += format(R"(%s{"match":%s,"after_fraction":%.6g,)"
                  R"("probability":%.6g})",
                  i == 0 ? "" : ",", match_json(f.match).c_str(),
                  f.after_fraction, f.probability);
  }
  out += "],\n    \"rejects\": [";
  for (std::size_t i = 0; i < plan.rejects.size(); ++i) {
    const faults::RejectFault& f = plan.rejects[i];
    out += format(R"(%s{"match":%s,"every_nth":%d,"probability":%.6g})",
                  i == 0 ? "" : ",", match_json(f.match).c_str(), f.every_nth,
                  f.probability);
  }
  out += "],\n    \"blackouts\": [";
  for (std::size_t i = 0; i < plan.blackouts.size(); ++i) {
    const faults::BlackoutFault& f = plan.blackouts[i];
    out += format(R"(%s{"start":%.6g,"duration":%.6g})", i == 0 ? "" : ",",
                  f.start, f.duration);
  }
  out += "],\n    \"cache_flushes\": [";
  for (std::size_t i = 0; i < plan.cache_flushes.size(); ++i) {
    out += format(R"(%s{"at":%.6g})", i == 0 ? "" : ",",
                  plan.cache_flushes[i].at);
  }
  out += "],\n    \"dc_blackouts\": [";
  for (std::size_t i = 0; i < plan.dc_blackouts.size(); ++i) {
    const faults::DcBlackoutFault& f = plan.dc_blackouts[i];
    out += format(R"(%s{"start":%.6g,"duration":%.6g})", i == 0 ? "" : ",",
                  f.start, f.duration);
  }
  out += "]\n  }\n}\n";
  return out;
}

ReproArtifact parse_repro(const std::string& json) {
  const Json root = parse_json(json);
  if (root.type != Json::Type::kObject) {
    throw ParseError("repro json: top level is not an object");
  }
  ReproArtifact artifact;
  artifact.service = root.str_or("service", "");
  artifact.profile_id = static_cast<int>(root.num_or("profile", 7));
  artifact.duration = root.num_or("duration_s", 120);
  artifact.chaos_seed =
      static_cast<std::uint64_t>(root.num_or("chaos_seed", 0));
  artifact.invariants = root.str_or("invariants", "");
  artifact.origin_mode = root.str_or("origin_mode", "none");

  const Json* plan = root.find("plan");
  if (plan == nullptr || plan->type != Json::Type::kObject) {
    throw ParseError("repro json: missing \"plan\" object");
  }
  faults::FaultPlan& out = artifact.plan;
  out.name = plan->str_or("name", "repro");
  out.seed = static_cast<std::uint64_t>(plan->num_or("seed", 1));

  if (const Json* list = plan->find("latency")) {
    for (const Json& j : list->array) {
      faults::LatencyFault f;
      f.match = parse_match(j);
      f.base = j.num_or("base", 0.2);
      f.jitter = j.num_or("jitter", 0);
      f.probability = j.num_or("probability", 1);
      out.latency.push_back(f);
    }
  }
  if (const Json* list = plan->find("errors")) {
    for (const Json& j : list->array) {
      faults::ErrorFault f;
      f.match = parse_match(j);
      f.status = static_cast<int>(j.num_or("status", 503));
      f.probability = j.num_or("probability", 0.1);
      out.errors.push_back(f);
    }
  }
  if (const Json* list = plan->find("resets")) {
    for (const Json& j : list->array) {
      faults::ResetFault f;
      f.match = parse_match(j);
      f.after_fraction = j.num_or("after_fraction", 0.5);
      f.probability = j.num_or("probability", 0.05);
      out.resets.push_back(f);
    }
  }
  if (const Json* list = plan->find("rejects")) {
    for (const Json& j : list->array) {
      faults::RejectFault f;
      f.match = parse_match(j);
      f.every_nth = static_cast<int>(j.num_or("every_nth", 0));
      f.probability = j.num_or("probability", 0);
      out.rejects.push_back(f);
    }
  }
  if (const Json* list = plan->find("blackouts")) {
    for (const Json& j : list->array) {
      faults::BlackoutFault f;
      f.start = j.num_or("start", 0);
      f.duration = j.num_or("duration", 10);
      out.blackouts.push_back(f);
    }
  }
  if (const Json* list = plan->find("cache_flushes")) {
    for (const Json& j : list->array) {
      faults::CacheFlushFault f;
      f.at = j.num_or("at", 0);
      out.cache_flushes.push_back(f);
    }
  }
  if (const Json* list = plan->find("dc_blackouts")) {
    for (const Json& j : list->array) {
      faults::DcBlackoutFault f;
      f.start = j.num_or("start", 0);
      f.duration = j.num_or("duration", 10);
      out.dc_blackouts.push_back(f);
    }
  }
  return artifact;
}

}  // namespace vodx::chaos
