#include "obs/export.h"

#include "common/report.h"
#include "common/strings.h"

namespace vodx::obs {

namespace {

void write_fields(const Event& event, JsonWriter& w) {
  for (const Field& field : event.fields) {
    w.key(field.key);
    field.is_text ? w.string(field.text) : w.number(field.num);
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
  std::string line;
  JsonWriter w(line);
  sink.for_each([&](const Event& event) {
    line.clear();
    w.begin_object().key("t").number(event.sim_time);
    w.key("seq").integer(event.seq);
    w.key("cat").string(to_string(event.category));
    w.key("kind").string(kind_name(event.kind)).key("name").string(event.name);
    w.key("track").integer(event.track);
    write_fields(event, w);
    w.end_object();
    out << line << '\n';
  });
  line.clear();
  w.begin_object().key("kind").string("summary");
  w.key("name").string("obs.dropped");
  w.key("emitted").integer(sink.emitted());
  w.key("dropped").integer(sink.dropped());
  w.key("retained").integer(sink.size()).end_object();
  out << line << '\n';
}

void write_chrome_trace(const TraceSink& sink, std::ostream& out) {
  // Flushed to `out` per event; the writer keeps its place across clears.
  std::string json;
  JsonWriter w(json);
  w.begin_object().key("traceEvents").begin_array(/*one_per_line=*/true);
  // Opens a metadata event on thread `tid` and its "args" object.
  auto metadata = [&w](const char* name, std::size_t tid) -> JsonWriter& {
    w.begin_object().key("name").string(name).key("ph").string("M");
    w.key("pid").integer(1).key("tid").integer(tid);
    return w.key("args").begin_object();
  };
  metadata("process_name", 0).key("name").string("vodx session");
  w.end_object().end_object();
  const std::vector<std::string>& tracks = sink.track_names();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    metadata("thread_name", i).key("name").string(tracks[i]);
    w.end_object().end_object();
    // Keep Perfetto's track order equal to registration order.
    metadata("thread_sort_index", i).key("sort_index").integer(i);
    w.end_object().end_object();
  }
  out << json;

  sink.for_each([&](const Event& event) {
    json.clear();
    w.begin_object().key("name").string(event.name);
    w.key("cat").string(to_string(event.category));
    w.key("ph").string(chrome_phase(event.kind));
    w.key("ts").fixed(event.sim_time * 1e6, 3);
    w.key("pid").integer(1).key("tid").integer(event.track);
    if (event.kind == EventKind::kInstant) w.key("s").string("t");
    w.key("args").begin_object();
    write_fields(event, w);
    w.end_object().end_object();
    out << json;
  });

  json.clear();
  w.end_array().key("displayTimeUnit").string("ms");
  w.key("otherData").begin_object();
  w.key("emitted").integer(sink.emitted());
  w.key("dropped").integer(sink.dropped());
  w.end_object().end_object();
  out << json << '\n';
}

Table metrics_table(const MetricsSnapshot& snapshot) {
  Table table({"metric", "type"});
  table.add_column("count", Format::integer());
  for (const char* name : {"value", "mean", "p50", "p90", "p99", "max"}) {
    table.add_column(name, Format::fixed(3));
  }
  const std::nullopt_t none = std::nullopt;
  for (const MetricsSnapshot::Entry& entry : snapshot.entries) {
    switch (entry.type) {
      case MetricsSnapshot::Type::kCounter:
        table.add_row(entry.name, "counter", entry.count, none, none, none,
                       none, none, none);
        break;
      case MetricsSnapshot::Type::kGauge:
        table.add_row(entry.name, "gauge", none, entry.value, none, none,
                       none, none, none);
        break;
      case MetricsSnapshot::Type::kHistogram:
        table.add_row(entry.name, "histogram", entry.count, entry.value,
                       entry.mean, entry.p50, entry.p90, entry.p99,
                       entry.max);
        break;
    }
  }
  return table;
}

std::string metrics_report(const MetricsSnapshot& snapshot) {
  return Report()
      .line(format("metrics @ sim t=%.3f s", snapshot.sim_time))
      .section("", metrics_table(snapshot))
      .text();
}

void write_metrics(JsonWriter& w, const MetricsSnapshot& snapshot) {
  w.begin_object().key("sim_time").number(snapshot.sim_time);
  w.key("metrics").begin_object();
  for (const MetricsSnapshot::Entry& entry : snapshot.entries) {
    w.key(entry.name).begin_object();
    switch (entry.type) {
      case MetricsSnapshot::Type::kCounter:
        w.key("type").string("counter").key("count").integer(entry.count);
        break;
      case MetricsSnapshot::Type::kGauge:
        w.key("type").string("gauge").key("value").number(entry.value);
        w.key("time").number(entry.time);
        break;
      case MetricsSnapshot::Type::kHistogram:
        w.key("type").string("histogram").key("count").integer(entry.count);
        w.key("sum").number(entry.value).key("min").number(entry.min);
        w.key("mean").number(entry.mean).key("p50").number(entry.p50);
        w.key("p90").number(entry.p90).key("p99").number(entry.p99);
        w.key("max").number(entry.max).key("bounds").begin_array();
        for (const double bound : entry.bounds) w.number(bound);
        w.end_array().key("buckets").begin_array();
        for (const auto bucket : entry.buckets) w.integer(bucket);
        w.end_array();
        break;
    }
    w.end_object();
  }
  w.end_object().end_object();
}

}  // namespace vodx::obs
