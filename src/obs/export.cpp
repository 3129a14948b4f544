#include "obs/export.h"

#include <cmath>

#include "common/strings.h"

namespace vodx::obs {

namespace {

/// Numbers in JSON: integers render without a fraction, NaN/inf (never
/// expected, but exporters must not emit invalid JSON) become null.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return format("%lld", static_cast<long long>(value));
  }
  return format("%.9g", value);
}

void append_fields_json(const Event& event, std::string* out) {
  for (const Field& field : event.fields) {
    out->append(",\"");
    out->append(json_escape(field.key));
    out->append("\":");
    if (field.is_text) {
      out->push_back('"');
      out->append(json_escape(field.text));
      out->push_back('"');
    } else {
      out->append(json_number(field.num));
    }
  }
}

const char* kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kInstant: return "instant";
    case EventKind::kSpanBegin: return "begin";
    case EventKind::kSpanEnd: return "end";
    case EventKind::kCounter: return "counter";
  }
  return "?";
}

const char* chrome_phase(EventKind kind) {
  switch (kind) {
    case EventKind::kInstant: return "i";
    case EventKind::kSpanBegin: return "B";
    case EventKind::kSpanEnd: return "E";
    case EventKind::kCounter: return "C";
  }
  return "i";
}

}  // namespace

void write_jsonl(const TraceSink& sink, std::ostream& out) {
  sink.for_each([&out](const Event& event) {
    std::string line = format(
        "{\"t\":%s,\"seq\":%llu,\"cat\":\"%s\",\"kind\":\"%s\","
        "\"name\":\"%s\",\"track\":%d",
        json_number(event.sim_time).c_str(),
        static_cast<unsigned long long>(event.seq), to_string(event.category),
        kind_name(event.kind), event.name, event.track);
    append_fields_json(event, &line);
    line += "}\n";
    out << line;
  });
  out << format(
      "{\"kind\":\"summary\",\"name\":\"obs.dropped\",\"emitted\":%llu,"
      "\"dropped\":%llu,\"retained\":%zu}\n",
      static_cast<unsigned long long>(sink.emitted()),
      static_cast<unsigned long long>(sink.dropped()), sink.size());
}

void write_chrome_trace(const TraceSink& sink, std::ostream& out) {
  out << "{\"traceEvents\":[\n";
  bool first = true;
  auto emit_raw = [&out, &first](const std::string& json) {
    if (!first) out << ",\n";
    first = false;
    out << json;
  };

  emit_raw(
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"vodx session\"}}");
  const std::vector<std::string>& tracks = sink.track_names();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    emit_raw(format(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
        "\"args\":{\"name\":\"%s\"}}",
        i, json_escape(tracks[i]).c_str()));
    // Keep Perfetto's track order equal to registration order.
    emit_raw(format(
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":%zu,"
        "\"args\":{\"sort_index\":%zu}}",
        i, i));
  }

  sink.for_each([&emit_raw](const Event& event) {
    std::string json = format(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,"
        "\"pid\":1,\"tid\":%d",
        json_escape(event.name).c_str(), to_string(event.category),
        chrome_phase(event.kind), event.sim_time * 1e6, event.track);
    if (event.kind == EventKind::kInstant) json += ",\"s\":\"t\"";
    json += ",\"args\":{";
    bool first_field = true;
    for (const Field& field : event.fields) {
      if (!first_field) json += ",";
      first_field = false;
      json += "\"";
      json += json_escape(field.key);
      json += "\":";
      if (field.is_text) {
        json += "\"";
        json += json_escape(field.text);
        json += "\"";
      } else {
        json += json_number(field.num);
      }
    }
    json += "}}";
    emit_raw(json);
  });

  out << format(
      "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
      "\"emitted\":%llu,\"dropped\":%llu}}\n",
      static_cast<unsigned long long>(sink.emitted()),
      static_cast<unsigned long long>(sink.dropped()));
}

Table metrics_table(const MetricsSnapshot& snapshot) {
  Table table({"metric", "type", "count", "value", "mean", "p50", "p90",
               "p99", "max"});
  for (const MetricsSnapshot::Entry& entry : snapshot.entries) {
    switch (entry.type) {
      case MetricsSnapshot::Type::kCounter:
        table.add_row({entry.name, "counter",
                       format("%lld", static_cast<long long>(entry.count)),
                       "-", "-", "-", "-", "-", "-"});
        break;
      case MetricsSnapshot::Type::kGauge:
        table.add_row({entry.name, "gauge", "-", format("%.3f", entry.value),
                       "-", "-", "-", "-", "-"});
        break;
      case MetricsSnapshot::Type::kHistogram:
        table.add_row({entry.name, "histogram",
                       format("%lld", static_cast<long long>(entry.count)),
                       format("%.3f", entry.value),
                       format("%.3f", entry.mean), format("%.3f", entry.p50),
                       format("%.3f", entry.p90), format("%.3f", entry.p99),
                       format("%.3f", entry.max)});
        break;
    }
  }
  return table;
}

std::string metrics_report(const MetricsSnapshot& snapshot) {
  std::string out = format("metrics @ sim t=%.3f s\n", snapshot.sim_time);
  out += metrics_table(snapshot).render();
  return out;
}

std::string metrics_json(const MetricsSnapshot& snapshot) {
  std::string out =
      format("{\"sim_time\":%s,\"metrics\":{",
             json_number(snapshot.sim_time).c_str());
  bool first = true;
  for (const MetricsSnapshot::Entry& entry : snapshot.entries) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(entry.name) + "\":";
    switch (entry.type) {
      case MetricsSnapshot::Type::kCounter:
        out += format("{\"type\":\"counter\",\"count\":%lld}",
                      static_cast<long long>(entry.count));
        break;
      case MetricsSnapshot::Type::kGauge:
        out += format("{\"type\":\"gauge\",\"value\":%s,\"time\":%s}",
                      json_number(entry.value).c_str(),
                      json_number(entry.time).c_str());
        break;
      case MetricsSnapshot::Type::kHistogram: {
        out += format(
            "{\"type\":\"histogram\",\"count\":%lld,\"sum\":%s,"
            "\"min\":%s,\"mean\":%s,\"p50\":%s,\"p90\":%s,\"p99\":%s,"
            "\"max\":%s,\"bounds\":[",
            static_cast<long long>(entry.count),
            json_number(entry.value).c_str(), json_number(entry.min).c_str(),
            json_number(entry.mean).c_str(), json_number(entry.p50).c_str(),
            json_number(entry.p90).c_str(), json_number(entry.p99).c_str(),
            json_number(entry.max).c_str());
        for (std::size_t i = 0; i < entry.bounds.size(); ++i) {
          if (i > 0) out += ",";
          out += json_number(entry.bounds[i]);
        }
        out += "],\"buckets\":[";
        for (std::size_t i = 0; i < entry.buckets.size(); ++i) {
          if (i > 0) out += ",";
          out += format("%lld", static_cast<long long>(entry.buckets[i]));
        }
        out += "]}";
        break;
      }
    }
  }
  out += "}}";
  return out;
}

}  // namespace vodx::obs
