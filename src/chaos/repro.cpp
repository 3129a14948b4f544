#include "chaos/repro.h"

#include "common/error.h"
#include "common/json.h"
#include "common/strings.h"

namespace vodx::chaos {

namespace {

void write_match(const faults::Match& match, JsonWriter& w) {
  w.key("match").begin_object().key("url_contains").string(match.url_contains);
  w.key("start").number(match.start).key("end").number(match.end);
  w.end_object();
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
  std::string out;
  JsonWriter w(out);
  w.begin_object().key("service").string(artifact.service);
  w.key("profile").integer(artifact.profile_id);
  w.key("duration_s").number(artifact.duration);
  w.key("chaos_seed").integer(artifact.chaos_seed);
  w.key("invariants").string(artifact.invariants);
  w.key("origin_mode").string(artifact.origin_mode);
  w.key("plan").begin_object().key("name").string(plan.name);
  w.key("seed").integer(plan.seed);
  w.key("latency").begin_array();
  for (const faults::LatencyFault& f : plan.latency) {
    write_match(f.match, w.begin_object());
    w.key("base").number(f.base).key("jitter").number(f.jitter);
    w.key("probability").number(f.probability).end_object();
  }
  w.end_array().key("errors").begin_array();
  for (const faults::ErrorFault& f : plan.errors) {
    write_match(f.match, w.begin_object());
    w.key("status").integer(f.status);
    w.key("probability").number(f.probability).end_object();
  }
  w.end_array().key("resets").begin_array();
  for (const faults::ResetFault& f : plan.resets) {
    write_match(f.match, w.begin_object());
    w.key("after_fraction").number(f.after_fraction);
    w.key("probability").number(f.probability).end_object();
  }
  w.end_array().key("rejects").begin_array();
  for (const faults::RejectFault& f : plan.rejects) {
    write_match(f.match, w.begin_object());
    w.key("every_nth").integer(f.every_nth);
    w.key("probability").number(f.probability).end_object();
  }
  w.end_array().key("blackouts").begin_array();
  for (const faults::BlackoutFault& f : plan.blackouts) {
    w.begin_object().key("start").number(f.start);
    w.key("duration").number(f.duration).end_object();
  }
  w.end_array().key("cache_flushes").begin_array();
  for (const faults::CacheFlushFault& f : plan.cache_flushes) {
    w.begin_object().key("at").number(f.at).end_object();
  }
  w.end_array().key("dc_blackouts").begin_array();
  for (const faults::DcBlackoutFault& f : plan.dc_blackouts) {
    w.begin_object().key("start").number(f.start);
    w.key("duration").number(f.duration).end_object();
  }
  w.end_array().end_object().end_object();
  return out + '\n';
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
